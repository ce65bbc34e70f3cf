// Delta scanning: the block-after-block fast path. Between consecutive
// blocks only a handful of pools actually trade, yet a full scan
// re-optimizes every detected loop. Engine.Scan re-runs Strategy.Optimize
// only for loops touching a *dirty* pool (reserves moved) or a moved CEX
// price, and merges everything else from the previous scan's results —
// producing a report identical to a full scan over the same state.
//
// Correctness rests on three facts:
//
//   - A cycle whose pools all kept their reserves keeps its profitable
//     orientation (the price product is a function of reserves and fees
//     only), so the detected loop set changes only through dirty cycles.
//   - A loop whose pools and token prices are all unchanged re-optimizes
//     to the identical Result (strategies are deterministic functions of
//     the loop reserves and the price map).
//   - Pool sets are canonicalized before anything else, so pool and node
//     indices — and therefore the cached inverted indexes — are stable
//     across scans with equal topologies.
//
// The engine is sharded (see shard.go): the cycle set is partitioned
// once per captured topology, each shard owns the captured per-cycle
// state for its cycles, and a scan touches only the shards whose dirty
// set is non-empty — re-orienting them in parallel and committing
// copy-on-write per shard, so clean shards cost nothing, not even a
// baseline copy.
//
// The per-block path is also on an allocation diet: the topology check
// compares pool metadata field-by-field instead of hashing a
// fingerprint, the graph is rebound to fresh reserves instead of
// rebuilt, and every per-scan slice and map lives in a reusable scratch
// arena carried by the Engine, so a steady-state delta scan touches the
// allocator a fixed handful of times regardless of market size.
//
// The dirty set is computed by diffing reserves against the previous
// scan's (authoritative, O(pools)), optionally widened by a caller-
// provided hint such as feed.Update.ChangedPools; prices are re-fetched
// every scan and diffed the same way, so a moved CEX price re-optimizes
// exactly the loops it touches. The strategy, loop bounds, and shard
// count are fixed when the Engine is built, so only two things can leave
// a scan without a usable baseline — the first scan, and a changed
// topology — and Engine.Scan then transparently runs a full pass and
// captures fresh state.
package scan

import (
	"context"
	"sync"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// FullReason says why a scan ran the full detect → optimize → assemble
// pass instead of the delta path — the reason label of
// arbloop_scans_total{kind="full"}.
type FullReason int

const (
	// FullFirst: the engine had no baseline yet (its first capture).
	FullFirst FullReason = iota
	// FullTopology: the pool set's topology (pool IDs, token pairs,
	// fees) no longer matches the baseline's, so Scan recaptured.
	FullTopology
	// FullOneshot: Engine.Full or Engine.Stream, which never read or
	// write the baseline.
	FullOneshot
	numFullReasons
)

// fullReasonNames are the metric label values, indexed by FullReason.
var fullReasonNames = [numFullReasons]string{"first", "topology", "oneshot"}

// Engine is the scan engine: one value per scanner, built once by New,
// with its strategy, loop bounds, and shard count fixed for life. It
// runs every kind of scan over the pool sets handed to it:
//
//   - Scan is the per-block delta path. It re-optimizes only what moved
//     since the previous Scan and captures a fresh baseline when there
//     is none or the topology changed.
//   - Full is a one-shot detect → optimize → assemble pass that neither
//     reads nor writes the baseline — the independent reference every
//     delta ≡ full property test compares Scan against.
//   - Stream is Full's pass delivering per-loop results as they finish.
//
// Safe for concurrent use. The mutex guards only the in-memory baseline
// snapshot, the scratch-arena checkout, staged warm hints, and commit —
// never the price fetch or the optimization fan-out, so a slow scan
// (hung PriceSource, heavy strategy) cannot stall other scans on the
// same engine. Concurrent Scans each compute against the baseline they
// snapshotted — any committed baseline is a self-consistent (reserves,
// prices, shards) capture, so last-writer-wins is correct and the next
// diff simply runs against whichever baseline landed.
type Engine struct {
	cfg    Config
	prices source.PriceSource
	st     *engineState
}

// engineState is the mutable half of an Engine, shared with every view
// derived from it (WithWorkers, WithMetrics).
type engineState struct {
	mu sync.Mutex
	// base is the captured baseline; base.plan is nil before the first
	// capture.
	base baseline
	// scr is the reusable scratch arena. At most one scan holds it at a
	// time; a concurrent scan that finds it checked out allocates a
	// fresh one (rare — the steady state is one scan per block).
	scr *scratch
	// hints are staged warm starts for the first full pass (see
	// PrimeWarmStarts); hintsTaken closes staging once a pass took them.
	hints      *WarmHints
	hintsTaken bool
	// lifetime counters: captures by reason (first, topology), delta
	// scans, and shards rescanned by committed scans.
	captures               [FullOneshot]uint64
	deltaScans, shardScans uint64
}

// New builds an engine over a price source. cfg's defaults are resolved
// here, once (see Config.Resolve), and fixed for the engine's lifetime.
func New(cfg Config, prices source.PriceSource) *Engine {
	return &Engine{cfg: cfg.Resolve(), prices: prices, st: &engineState{}}
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// WithWorkers returns a view of e that runs its parallel phases on pool
// — how a long-lived consumer (Scanner.Watch, Bot.Run) lends the engine
// a persistent goroutine pool for its lifetime. The view shares e's
// baseline, warm hints, and counters.
func (e *Engine) WithWorkers(pool *Workers) *Engine {
	v := *e
	v.cfg.Workers = pool
	return &v
}

// WithMetrics returns a view of e that reports to m (nil disables
// instrumentation), sharing e's baseline, warm hints, and counters — so
// an overhead measurement can toggle telemetry over one baseline.
func (e *Engine) WithMetrics(m *Metrics) *Engine {
	v := *e
	v.cfg.Metrics = m
	return &v
}

// PrimeWarmStarts stages recovered warm starts (token cycles + per-hop
// inputs, e.g. from the durable opportunity log's tail) for the engine's
// first full pass. They are consumed once, by that pass, and only when
// the strategy implements strategy.WarmStarter; calls made after a full
// pass has run are ignored.
func (e *Engine) PrimeWarmStarts(hints []WarmHint) {
	wh := NewWarmHints(hints)
	e.st.mu.Lock()
	defer e.st.mu.Unlock()
	if wh != nil && !e.st.hintsTaken {
		e.st.hints = wh
	}
}

// takeHints closes warm-start staging and matches the staged hints
// against a full pass's loops: the prev-result slice for optimizeInto,
// nil when nothing is staged or the strategy cannot warm-start.
func (e *Engine) takeHints(loops []*strategy.Loop) []*strategy.Result {
	e.st.mu.Lock()
	wh := e.st.hints
	e.st.hints, e.st.hintsTaken = nil, true
	e.st.mu.Unlock()
	if _, ok := e.cfg.Strategy.(strategy.WarmStarter); !ok {
		return nil
	}
	return wh.take(loops)
}

// poolMeta is the topology identity of one canonical pool — everything
// the Fingerprint hashes, kept unhashed so the per-block topology check
// is a field compare instead of a SHA-256 pass.
type poolMeta struct {
	id, token0, token1 string
	fee                float64
}

// baseline is one captured scan, immutable once committed: every field
// is replaced wholesale by commit, never mutated in place, so readers
// holding a snapshot need no lock. Shard baselines are shared across
// consecutive commits when clean (copy-on-write).
type baseline struct {
	top  *topology
	plan *shardPlan
	// meta is the canonical pool set's topology identity at capture.
	meta []poolMeta
	// reserves[i] holds {Reserve0, Reserve1} of canonical pool i at the
	// captured scan — what the dirty-pool diff runs against.
	reserves [][2]float64
	// prices is the price map the captured results were monetized with.
	prices strategy.PriceMap
	// shards holds each shard's captured per-cycle outcomes.
	shards []*shardBase
}

// deltaEntry is one cycle's captured outcome (meaningful only when the
// cycle's orientation is not orientNone).
type deltaEntry struct {
	loop   *strategy.Loop
	result strategy.Result
	err    error
}

// DeltaStats counts how Engine.Scan resolved its calls: on the fast
// path or through a capture, and how much shard work the fast path did.
// One-shot passes (Full, Stream) leave it unchanged.
type DeltaStats struct {
	// FullScans counts captures; FullFirst and FullTopology split it by
	// reason (see FullReason).
	FullScans, DeltaScans   uint64
	FullFirst, FullTopology uint64
	// ShardsScanned is the cumulative number of shards rescanned by
	// committed scans. Captures contribute every shard, delta scans only
	// the dirty ones, so a low ShardsScanned relative to Shards×(FullScans
	// +DeltaScans) means the sharded fast path is doing its job.
	ShardsScanned uint64
	// Shards is the shard count of the current baseline (0 before the
	// first capture).
	Shards int
}

// Stats returns the engine's lifetime delta-path counters.
func (e *Engine) Stats() DeltaStats {
	st := e.st
	st.mu.Lock()
	defer st.mu.Unlock()
	s := DeltaStats{
		FullScans:     st.captures[FullFirst] + st.captures[FullTopology],
		DeltaScans:    st.deltaScans,
		FullFirst:     st.captures[FullFirst],
		FullTopology:  st.captures[FullTopology],
		ShardsScanned: st.shardScans,
	}
	if st.base.plan != nil {
		s.Shards = st.base.plan.n
	}
	return s
}

// resolve snapshots the baseline for one Scan of canonical pools and
// counts how the scan resolves: ok=false means the baseline cannot
// serve it and reason says why a capture must run instead.
func (st *engineState) resolve(pools []*amm.Pool) (base baseline, reason FullReason, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case st.base.plan == nil:
		reason = FullFirst
	case !st.base.usable(pools):
		reason = FullTopology
	default:
		st.deltaScans++
		return st.base, 0, true
	}
	st.captures[reason]++
	return baseline{}, reason, false
}

// checkoutScratch hands the reusable arena to one scan (a fresh one when
// another scan holds it); putScratch returns it.
func (st *engineState) checkoutScratch() *scratch {
	st.mu.Lock()
	scr := st.scr
	st.scr = nil
	st.mu.Unlock()
	if scr == nil {
		scr = &scratch{}
	}
	return scr
}

func (st *engineState) putScratch(scr *scratch) {
	st.mu.Lock()
	st.scr = scr
	st.mu.Unlock()
}

// usable reports whether the captured baseline can serve a delta scan of
// the given canonical pools: an identical pool topology, compared
// field-by-field — the allocation-free equivalent of a fingerprint match.
func (b *baseline) usable(pools []*amm.Pool) bool {
	if len(pools) != len(b.meta) {
		return false
	}
	for i, p := range pools {
		m := &b.meta[i]
		if p.ID != m.id || p.Token0 != m.token0 || p.Token1 != m.token1 || p.Fee != m.fee {
			return false
		}
	}
	return true
}

// scratch is the reusable per-scan arena: every slice and map the delta
// fast path needs, sized once and recycled block after block so the
// steady-state scan performs no per-item allocation. Nothing in here
// outlives the scan that holds it — state that must survive (orient,
// entries) is written into fresh copy-on-write shard baselines instead.
type scratch struct {
	dirtyPool  []bool // per canonical pool
	dirtyCycle []bool // per cycle
	// shardCycles[s] lists the reserve-dirty cycles of shard s this
	// scan; dirtyShards lists the shards with any.
	shardCycles [][]int
	dirtyShards []int
	shardErrs   []error // per dirtyShards position, set by phase-A workers
	// newShard[s] is shard s's copy-on-write baseline this scan (nil =
	// clean, shares the previous baseline).
	newShard []*shardBase
	// newLoop[ci] is the freshly built loop of a dirty profitable cycle
	// (stale entries are never read — only cycles dirty this scan are).
	newLoop   []*strategy.Loop
	loopIdx   []int32 // per cycle: loop index this scan, or -1
	loops     []*strategy.Loop
	loopCycle []int  // per loop: owning cycle
	reopt     []bool // per loop: must re-run Optimize
	// prevRes[li] points at the loop's captured result in the previous
	// baseline (same orientation, no error) — the warm start handed to
	// WarmStarter strategies; nil when the capture is unusable.
	prevRes []*strategy.Result
	jobs    []int
	all     []Result
	rank    []int32 // assembleReport's ranked-index buffer
	// tokenSeen[n] flags graph node n as a token of a detected loop;
	// symbols is the sorted price-fetch list built from it.
	tokenSeen []bool
	symbols   []string
	// det is the report-assembly view of the scan, rebuilt in place each
	// block so the steady-state path does not heap-allocate a detection.
	det detection
}

// growSlice returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares the arena for one scan over nPools pools, nNodes
// tokens, nCycles cycles, and nShards shards.
func (s *scratch) reset(nPools, nNodes, nCycles, nShards int) {
	s.dirtyPool = growSlice(s.dirtyPool, nPools)
	clear(s.dirtyPool)
	s.dirtyCycle = growSlice(s.dirtyCycle, nCycles)
	clear(s.dirtyCycle)
	s.shardCycles = growSlice(s.shardCycles, nShards)
	for i := range s.shardCycles {
		s.shardCycles[i] = s.shardCycles[i][:0]
	}
	s.dirtyShards = s.dirtyShards[:0]
	s.shardErrs = s.shardErrs[:0]
	s.newShard = growSlice(s.newShard, nShards)
	clear(s.newShard)
	s.newLoop = growSlice(s.newLoop, nCycles)
	s.loopIdx = growSlice(s.loopIdx, nCycles)
	s.loops = s.loops[:0]
	s.loopCycle = s.loopCycle[:0]
	s.reopt = s.reopt[:0]
	s.prevRes = s.prevRes[:0]
	s.jobs = s.jobs[:0]
	s.tokenSeen = growSlice(s.tokenSeen, nNodes)
	clear(s.tokenSeen)
	s.symbols = s.symbols[:0]
}

// Scan scans the pool set on the delta path, re-optimizing only the
// loops affected by reserve or price changes since the previous Scan and
// merging the rest from the captured results. The report is identical —
// results, ordering, counters — to Full over the same pools and prices,
// except that TopologyCacheHit reflects the delta path and
// LoopsReoptimized/LoopsReused/ShardsScanned expose the work split.
//
// hint optionally names pools the caller already knows changed (e.g.
// feed.Update.ChangedPools); it widens the self-computed dirty set and is
// never trusted to narrow it, so a stale or incomplete hint — coalesced
// feed updates, a skipped version — cannot produce a wrong report.
//
// Scan captures a fresh baseline with a full pass whenever it has no
// usable one: the first scan, or a changed topology (see FullReason).
//
// Scan is the steady-state per-block path, pinned to a 7-alloc budget
// (TestRunDeltaSteadyStateAllocBudget, TestTelemetryScanAllocs). Every
// deliberate allocation below carries an //arblint:ignore with its
// reason; anything new must either ride the scratch arena or justify
// itself the same way.
//
//arblint:hotpath
func (e *Engine) Scan(ctx context.Context, pools []*amm.Pool, hint []string) (Report, error) {
	pools = Canonicalize(pools)
	if len(pools) == 0 {
		return Report{}, errNoPools
	}

	base, reason, ok := e.st.resolve(pools)
	if !ok {
		return e.fullPass(ctx, pools, reason, nil)
	}
	m := e.cfg.Metrics
	var start, t time.Time
	timed := false
	if m != nil {
		m.DeltaScans.Inc()
		// One clock read per scan keeps the dirtiness EMA gap exact; the
		// per-stage boundary reads below are sampled (see StageSample).
		timed = m.timedScan()
		start = time.Now()
		t = start
	}

	top, plan := base.top, base.plan
	g, err := top.skel.Rebind(pools)
	if err != nil {
		return Report{}, err
	}

	scr := e.st.checkoutScratch()
	defer e.st.putScratch(scr)
	scr.reset(len(pools), g.NumNodes(), len(top.cycles), plan.n)

	// Dirty pools: the reserve diff against the captured baseline is
	// authoritative; the hint can only widen it.
	dirtyPools := 0
	for i, p := range pools {
		if p.Reserve0 != base.reserves[i][0] || p.Reserve1 != base.reserves[i][1] {
			scr.dirtyPool[i] = true
			dirtyPools++
		}
	}
	for _, id := range hint {
		if i, ok := top.poolIndex[id]; ok && !scr.dirtyPool[i] {
			scr.dirtyPool[i] = true
			dirtyPools++
		}
	}
	if m != nil {
		m.DirtyPools.Add(uint64(dirtyPools))
		m.observeDirtiness(scr.dirtyPool, dirtyPools, start)
	}

	// Dirty cycles via the inverted index, grouped by owning shard: any
	// cycle routing through a dirty pool must re-orient (its price
	// product moved), and only shards with dirty cycles wake up.
	for pi, dirty := range scr.dirtyPool {
		if !dirty {
			continue
		}
		for _, ci := range top.poolCycles[pi] {
			if scr.dirtyCycle[ci] {
				continue
			}
			scr.dirtyCycle[ci] = true
			s := int(plan.shardOf[ci])
			if len(scr.shardCycles[s]) == 0 {
				scr.dirtyShards = append(scr.dirtyShards, s)
			}
			scr.shardCycles[s] = append(scr.shardCycles[s], ci)
		}
	}

	// Phase A — shard re-orientation, dirty shards in parallel: each
	// dirty shard clones its baseline (copy-on-write), re-orients its
	// dirty cycles against the fresh reserves, and rebuilds the loops of
	// the profitable ones.
	if n := len(scr.dirtyShards); n > 0 {
		scr.shardErrs = growSlice(scr.shardErrs, n)
		clear(scr.shardErrs)
		//arblint:ignore hotpath dirty-shard fan-out only: clean steady-state scans never reach this branch, and the capture is one closure per dirty scan
		forEachIndex(ctx, e.cfg.Workers, e.cfg.Parallelism, n, func(k int) bool {
			s := scr.dirtyShards[k]
			sb := cloneShardBase(base.shards[s])
			scr.newShard[s] = sb
			for _, ci := range scr.shardCycles[s] {
				lo := plan.localOf[ci]
				o, err := orientCycle(g, top.cycles[ci])
				if err != nil {
					scr.shardErrs[k] = err
					return false
				}
				sb.orient[lo] = o
				if o == orientNone {
					sb.entries[lo] = deltaEntry{} // drop the stale capture
					continue
				}
				loop, err := loopFromCycle(g, top.cycles[ci], o)
				if err != nil {
					scr.shardErrs[k] = err
					return false
				}
				scr.newLoop[ci] = loop
			}
			return true
		})
		for _, err := range scr.shardErrs {
			if err != nil {
				return Report{}, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if m != nil {
		for _, s := range scr.dirtyShards {
			m.shardWake(s)
		}
	}

	// Stitch: materialize the detected loop list in global cycle order —
	// exactly the order a full scan detects in — reading each cycle's
	// orientation from its shard (the fresh clone when dirty, the shared
	// baseline when clean), and union the loop tokens for the price
	// fetch. A dirty cycle that kept its orientation also carries a
	// pointer to its captured result: baselines are immutable once
	// committed, so the pointer stays valid for the scan, and WarmStarter
	// strategies re-optimize from the previous block's optimum instead of
	// cold-starting.
	for ci := range top.cycles {
		s := plan.shardOf[ci]
		lo := plan.localOf[ci]
		sb := scr.newShard[s]
		if sb == nil {
			sb = base.shards[s]
		}
		o := sb.orient[lo]
		if o == orientNone {
			scr.loopIdx[ci] = -1
			continue
		}
		dirty := scr.dirtyCycle[ci]
		var loop *strategy.Loop
		var prevEntry *deltaEntry
		if dirty {
			loop = scr.newLoop[ci]
			if old := base.shards[s]; old.orient[lo] == o && old.entries[lo].err == nil && old.entries[lo].loop != nil {
				prevEntry = &old.entries[lo]
			}
		} else {
			loop = sb.entries[lo].loop
		}
		li := len(scr.loops)
		scr.loopIdx[ci] = int32(li)
		scr.loops = append(scr.loops, loop)
		scr.loopCycle = append(scr.loopCycle, ci)
		scr.reopt = append(scr.reopt, dirty)
		if prevEntry != nil {
			scr.prevRes = append(scr.prevRes, &prevEntry.result)
		} else {
			scr.prevRes = append(scr.prevRes, nil)
		}
		markNodes(scr.tokenSeen, top.cycles[ci])
	}

	if timed {
		now := time.Now()
		m.StageOrient.Observe(now.Sub(t))
		t = now
	}

	// Prices are re-fetched every scan (one batched call, the same set a
	// full scan would fetch). A moved price re-optimizes every loop
	// touching the token — cached Monetized values are stale for it —
	// and wakes the loop's shard for the copy-on-write commit.
	scr.symbols = appendSymbols(scr.symbols, g, scr.tokenSeen)
	pm, degraded, err := fetchPriceSymbols(ctx, e.prices, scr.symbols, e.cfg.StageTimeout)
	if err != nil {
		return Report{}, err
	}
	priceMoved := false
	for _, tok := range scr.symbols {
		old, ok := base.prices[tok]
		if ok && old == pm[tok] {
			continue
		}
		priceMoved = true
		for _, ci := range top.tokenCycles[tok] {
			li := scr.loopIdx[ci]
			if li < 0 || scr.reopt[li] {
				continue
			}
			scr.reopt[li] = true
			// The loop itself is clean (same reserves, same orientation),
			// so its capture is a valid warm start for the re-pricing.
			if e := &base.shards[plan.shardOf[ci]].entries[plan.localOf[ci]]; e.err == nil && e.loop != nil {
				scr.prevRes[li] = &e.result
			}
			if s := plan.shardOf[ci]; scr.newShard[s] == nil {
				scr.newShard[s] = cloneShardBase(base.shards[s])
				if m != nil {
					m.shardWake(int(s))
				}
			}
		}
	}
	if timed {
		now := time.Now()
		m.StagePrices.Observe(now.Sub(t))
		t = now
	}

	// Phase B — optimization fan-out over the affected loops (chunked,
	// parallel); every clean loop merges from its shard's capture.
	scr.all = growSlice(scr.all, len(scr.loops))
	for li, loop := range scr.loops {
		if scr.reopt[li] {
			scr.jobs = append(scr.jobs, li)
			scr.all[li] = Result{Index: li, Loop: loop}
			continue
		}
		ci := scr.loopCycle[li]
		sb := scr.newShard[plan.shardOf[ci]]
		if sb == nil {
			sb = base.shards[plan.shardOf[ci]]
		}
		e := sb.entries[plan.localOf[ci]]
		scr.all[li] = Result{Index: li, Loop: e.loop, Result: e.result, Err: e.err}
	}
	optimizeInto(ctx, scr.loops, pm, scr.jobs, scr.prevRes, scr.all, e.cfg, nil)
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if m != nil {
		m.LoopsReoptimized.Add(uint64(len(scr.jobs)))
		m.LoopsReused.Add(uint64(len(scr.loops) - len(scr.jobs)))
		if timed {
			now := time.Now()
			m.StageOptimize.Observe(now.Sub(t))
			t = now
		}
	}

	// Write the fresh outcomes into the copy-on-write shard entries.
	for _, li := range scr.jobs {
		ci := scr.loopCycle[li]
		r := scr.all[li]
		scr.newShard[plan.shardOf[ci]].entries[plan.localOf[ci]] = deltaEntry{loop: r.Loop, result: r.Result, err: r.Err}
	}
	shardsScanned := 0
	for _, sb := range scr.newShard {
		if sb != nil {
			shardsScanned++
		}
	}

	// assembleReport only reads the detection within the call, so the
	// scratch arena carries it across blocks instead of the heap.
	scr.det = detection{graph: g, top: top, loops: scr.loops, prices: pm, cacheHit: true, degraded: degraded}
	scr.rank = growSlice(scr.rank, len(scr.all))
	rep, err := assembleReport(&scr.det, e.cfg, scr.all, len(scr.jobs), len(scr.loops)-len(scr.jobs), scr.rank)
	if err != nil {
		return Report{}, err
	}
	rep.ShardsScanned = shardsScanned

	// Commit the new baseline only after a fully successful scan, so a
	// failed pass leaves the previous (still self-consistent) state for
	// the next diff. A no-op scan (nothing dirty, no price moved)
	// commits nothing — the baseline is already exact.
	if dirtyPools > 0 || priceMoved || shardsScanned > 0 {
		shards := base.shards
		if shardsScanned > 0 {
			shards = make([]*shardBase, plan.n)
			for s := range shards {
				if scr.newShard[s] != nil {
					shards[s] = scr.newShard[s]
				} else {
					shards[s] = base.shards[s]
				}
			}
		}
		reserves := make([][2]float64, len(pools))
		for i, p := range pools {
			reserves[i] = [2]float64{p.Reserve0, p.Reserve1}
		}
		next := base
		next.reserves = reserves
		next.prices = pm
		next.shards = shards
		e.st.commitBase(next, shardsScanned)
	}
	if timed {
		now := time.Now()
		m.StageCommit.Observe(now.Sub(t))
		m.ScanTotal.Observe(now.Sub(start))
	}
	return rep, nil
}

// fullPass is the one full-scan pipeline — detect, optimize every loop,
// assemble the report — behind Full, Stream, and every capture; a pass
// for any reason but FullOneshot also commits a fresh baseline (see
// commitCapture). pools must be canonical. Staged warm hints
// (PrimeWarmStarts) feed the first pass as previous results. emit, when
// non-nil, receives each result as its worker finishes it (Stream); such
// a pass stops before assembly.
func (e *Engine) fullPass(ctx context.Context, pools []*amm.Pool, reason FullReason, emit chan<- Result) (Report, error) {
	m := e.cfg.Metrics
	var start, t time.Time
	if m != nil {
		start = time.Now()
		m.FullScans[reason].Inc()
	}
	d, err := detect(ctx, pools, e.prices, e.cfg)
	if err != nil {
		return Report{}, err
	}
	if m != nil {
		t = time.Now()
	}
	all := make([]Result, len(d.loops))
	optimizeInto(ctx, d.loops, d.prices, allJobs(len(d.loops)), e.takeHints(d.loops), all, e.cfg, emit)
	if err := ctx.Err(); err != nil || emit != nil {
		return Report{}, err
	}
	if m != nil {
		now := time.Now()
		m.StageOptimize.Observe(now.Sub(t))
		m.LoopsReoptimized.Add(uint64(len(d.loops)))
		t = now
	}
	rep, err := assembleReport(d, e.cfg, all, len(d.loops), 0, nil)
	if err != nil {
		return Report{}, err
	}
	if reason != FullOneshot {
		rep.ShardsScanned = e.commitCapture(pools, d, all)
	}
	if m != nil {
		now := time.Now()
		if reason != FullOneshot {
			m.StageCommit.Observe(now.Sub(t))
		}
		m.ScanTotal.Observe(now.Sub(start))
	}
	return rep, nil
}

// Full scans the pool set once and returns the ranked batch report. It
// neither reads nor writes the delta baseline.
func (e *Engine) Full(ctx context.Context, pools []*amm.Pool) (Report, error) {
	return e.fullPass(ctx, Canonicalize(pools), FullOneshot, nil)
}

// Stream scans the pool set and delivers per-loop results as they are
// produced, in completion order (use Result.Index to re-sequence);
// successes below MinProfitUSD are dropped and TopK does not apply. The
// channel closes when the scan finishes or the context is cancelled. A
// detection-stage failure arrives as a single Result with Err set and a
// nil Loop. Like Full, Stream leaves the delta baseline alone.
func (e *Engine) Stream(ctx context.Context, pools []*amm.Pool) <-chan Result {
	out := make(chan Result)
	go func() {
		defer close(out)
		_, err := e.fullPass(ctx, Canonicalize(pools), FullOneshot, out)
		if err != nil && ctx.Err() == nil {
			select {
			case out <- Result{Index: -1, Err: err}:
			case <-ctx.Done():
			}
		}
	}()
	return out
}

// commitCapture turns a full pass over canonical pools into the
// baseline the next delta scan diffs against — the shard partition, the
// pool topology and reserves, the prices, and the per-shard outcomes —
// and returns the shard count.
func (e *Engine) commitCapture(pools []*amm.Pool, d *detection, all []Result) int {
	plan := buildShardPlan(d.top, e.cfg.Shards)
	loopCycle := make([]int, len(d.loops))
	for ci, li := range d.loopOf {
		if li >= 0 {
			loopCycle[li] = ci
		}
	}
	meta := make([]poolMeta, len(pools))
	reserves := make([][2]float64, len(pools))
	for i, p := range pools {
		meta[i] = poolMeta{id: p.ID, token0: p.Token0, token1: p.Token1, fee: p.Fee}
		reserves[i] = [2]float64{p.Reserve0, p.Reserve1}
	}
	e.st.commitBase(baseline{
		top:      d.top,
		plan:     plan,
		meta:     meta,
		reserves: reserves,
		prices:   d.prices,
		shards:   splitCapture(plan, d.orient, loopCycle, all),
	}, plan.n)
	if m := e.cfg.Metrics; m != nil {
		m.capture(pools, plan.n)
	}
	return plan.n
}

// commitBase replaces the captured baseline with a freshly built one
// (dirty shard baselines are fresh copies, clean ones shared — either
// way nothing a concurrent snapshot holds is mutated). Takes the lock
// itself.
func (st *engineState) commitBase(b baseline, shardsScanned int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.base = b
	st.shardScans += uint64(shardsScanned)
}
