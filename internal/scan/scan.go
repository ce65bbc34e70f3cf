// Package scan is the whole-market scanning engine behind the public
// arbloop.Scanner: build the token graph from a pool source, enumerate
// candidate cycles once, keep the profitable orientations, fetch every
// needed CEX price in one batched call, and fan the per-loop optimization
// out over a bounded worker pool. Detection is sequential (it is a single
// graph traversal); optimization is the hot loop the paper's §VII runtime
// table measures, and parallelizes perfectly because loops are
// independent. An Engine (see New) is the one entry point: its strategy,
// loop bounds, and shard count are fixed when it is built, and it runs
// every scan — one-shot, streamed, or delta.
//
// Detection itself is split in two phases. The *topology* phase — cycle
// enumeration over the token graph — depends only on which pools exist,
// not on their reserves, and dominates detection cost; Cache memoizes it
// behind a pool-set Fingerprint so a block-driven caller re-enumerates
// only when pools, tokens, or fees actually change. The *state* phase —
// orienting the profitable directions and fetching prices — re-runs on
// every scan because reserves move every block.
package scan

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/cycles"
	"arbloop/internal/graph"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// errNoPools is preallocated: it is returned from the hot per-block
// path (Engine.Scan), which must not construct errors per call.
var errNoPools = errors.New("scan: no pools to scan")

// ErrStrategyPanic wraps a panic recovered from a Strategy.Optimize (or
// OptimizeWarm) call. The scan engine contains per-loop panics: the loop
// is reported as failed (Report.Failed, Result.Err) and the rest of the
// scan proceeds — a buggy custom strategy costs one loop, not the
// process. Recovered panics are also counted in Metrics.StrategyPanics.
var ErrStrategyPanic = errors.New("scan: strategy panicked")

// LoopFromDirected converts a detected directed cycle into a strategy
// loop, resolving pools and token keys through the graph.
func LoopFromDirected(g *graph.Graph, d cycles.Directed) (*strategy.Loop, error) {
	hops := make([]strategy.Hop, d.Len())
	for i := 0; i < d.Len(); i++ {
		hops[i] = strategy.Hop{
			Pool:    g.Pool(d.Pools[i]),
			TokenIn: g.Node(d.Nodes[i]),
		}
	}
	l, err := strategy.NewLoop(hops)
	if err != nil {
		return nil, fmt.Errorf("scan: directed cycle %v: %w", d, err)
	}
	return l, nil
}

// Config tunes an Engine. The zero value scans length-3 loops with the
// MaxMax strategy at GOMAXPROCS parallelism and keeps every profitable
// result.
type Config struct {
	// MinLen and MaxLen bound the loop length (defaults 3, 3).
	MinLen, MaxLen int
	// Strategy is the per-loop optimizer (default MaxMaxStrategy).
	Strategy strategy.Strategy
	// Parallelism bounds the optimization worker pool (default GOMAXPROCS).
	Parallelism int
	// MinProfitUSD drops results predicted below this (default 0: keep all
	// non-negative results).
	MinProfitUSD float64
	// TopK truncates the ranked batch report (0 = keep all). Streaming
	// ignores it.
	TopK int
	// MaxCycles caps how many undirected cycles enumeration may return
	// (0 = unlimited). Exceeding the cap fails the scan with
	// cycles.ErrTooMany — the guard that keeps an adversarially dense
	// market from blowing up the serve path's per-block time budget.
	MaxCycles int
	// Cache, when non-nil, memoizes the topology phase (cycle
	// enumeration) keyed by the pool set's Fingerprint and the
	// enumeration bounds, so successive scans over topology-identical
	// pool sets skip enumeration and only re-orient + re-optimize.
	Cache *Cache
	// Shards partitions the cycle set for the delta path (default
	// GOMAXPROCS): each shard owns the captured state of its cycles, and
	// a delta scan re-orients only the shards whose dirty set is
	// non-empty, in parallel. Full scans ignore it. See shard.go.
	Shards int
	// Workers, when non-nil, runs the scan's parallel phases on a
	// persistent goroutine pool instead of spawning goroutines per scan —
	// the block-driven serving configuration (Scanner.Watch, Bot.Run;
	// see Engine.WithWorkers).
	Workers *Workers
	// Metrics, when non-nil, receives per-stage latencies, scan/loop
	// counters, per-pool dirtiness EMAs, and per-shard wake-up counts
	// from every scan through this config (see Metrics). Nil disables
	// instrumentation. The writes the engine performs against it on the
	// steady-state delta path are allocation-free.
	Metrics *Metrics
	// StageTimeout bounds each externally-dependent stage of one scan —
	// today the batched CEX price fetch, the one place a scan blocks on
	// an outside service. A hung PriceSource cancels that scan with
	// context.DeadlineExceeded instead of wedging the block loop. 0 (the
	// default) disables the deadline; enabling it moves the price fetch
	// off the allocation-free fast path (context.WithTimeout allocates),
	// so the 7-alloc delta budget is quoted with it off.
	StageTimeout time.Duration
}

// Resolve returns the config with every default filled in: loop
// bounds, strategy, and the GOMAXPROCS-derived Parallelism and Shards.
// New resolves once, when it builds the Engine: the shard count shapes
// the delta baseline, so a default re-derived per scan would repartition
// whenever GOMAXPROCS changes between blocks (an explicit
// runtime.GOMAXPROCS call, testing.AllocsPerRun, or the runtime
// tracking a new cgroup CPU limit).
func (c Config) Resolve() Config {
	if c.MinLen <= 0 {
		c.MinLen = 3
	}
	if c.MaxLen < c.MinLen {
		c.MaxLen = c.MinLen
	}
	if c.Strategy == nil {
		c.Strategy = strategy.MaxMaxStrategy{}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	return c
}

// Result is one scanned loop: the optimization outcome, or the error that
// kept the strategy from producing one.
type Result struct {
	// Index is the loop's position in detection order — stable across
	// runs and parallelism levels, so results can be compared loop-for-loop.
	Index int
	// Loop is the profitable orientation that was optimized.
	Loop *strategy.Loop
	// Result is the strategy outcome (zero when Err != nil).
	Result strategy.Result
	// Err reports a per-loop optimization failure. The scan keeps going;
	// one degenerate loop must not sink a whole-market pass.
	Err error
}

// Report is the outcome of one batch scan.
type Report struct {
	// Strategy is the name of the optimizer that ran.
	Strategy string
	// Parallelism is the worker-pool width used.
	Parallelism int
	// Tokens and Pools count the scanned graph.
	Tokens, Pools int
	// CyclesExamined counts undirected candidate cycles.
	CyclesExamined int
	// LoopsDetected counts profitable orientations found (before the
	// MinProfitUSD filter).
	LoopsDetected int
	// Failed counts loops whose optimization returned an error; they are
	// absent from Results (stream consumers see them with Err set).
	Failed int
	// TopologyCacheHit reports whether detection reused a cached cycle
	// enumeration (always false when Config.Cache is nil).
	TopologyCacheHit bool
	// LoopsReoptimized counts loops whose Strategy.Optimize actually ran
	// this scan. A full scan re-optimizes every detected loop; a delta
	// scan (Engine.Scan) only the loops touching a dirty pool or a moved
	// price.
	LoopsReoptimized int
	// LoopsReused counts loops merged from the previous scan's results
	// without re-optimization (always 0 for a full scan).
	LoopsReused int
	// ShardsScanned counts the shards whose state was rescanned: every
	// shard on a capture, only the dirty ones on a delta scan, 0 for a
	// one-shot Engine.Full.
	ShardsScanned int
	// Degraded reports that the scan's prices came from a fallback (a
	// circuit-broken source serving last-known-good data — see
	// source.FallbackPriceSource): the results are best-effort, not
	// fresh. Propagated to the wire as ReportJSON's degraded field and
	// into the /v1/healthz status.
	Degraded bool
	// Results is sorted by monetized profit, descending, then by Index;
	// filtered by MinProfitUSD and truncated to TopK. Failed loops are
	// not included (they arrive only on the stream).
	Results []Result
}

// detection is the sequential front half of every full pass (see
// Engine.fullPass).
type detection struct {
	graph    *graph.Graph
	top      *topology
	loops    []*strategy.Loop
	orient   []int8 // per cycle: orientNone / orientForward / orientReverse
	loopOf   []int  // per cycle: loop index, or -1 when not profitable
	prices   strategy.PriceMap
	cacheHit bool
	degraded bool // prices came from a fallback (see Report.Degraded)
}

// Cycle orientations. At most one direction of an undirected cycle can be
// profitable (the two price products multiply to γ^{2k} < 1).
const (
	orientNone    int8 = 0
	orientForward int8 = 1
	orientReverse int8 = -1
)

// orientCycle returns the profitable orientation of a cycle against the
// current reserves, mirroring cycles.ArbitrageLoops (forward tested
// first). Both price products are read off the undirected cycle by hop
// index — no Directed copies — multiplying the same spot prices in the
// same order as cycles.PriceProduct over Forward and Reverse.
func orientCycle(g *graph.Graph, c cycles.Cycle) (int8, error) {
	for _, o := range [2]int8{orientForward, orientReverse} {
		prod := 1.0
		for i := range c.Nodes {
			node, pool := cycleHop(c, o, i)
			p, err := g.Pool(pool).SpotPrice(g.Node(node))
			if err != nil {
				return orientNone, fmt.Errorf("hop %d: %w", i, err)
			}
			prod *= p
		}
		if prod > 1 {
			return o, nil
		}
	}
	return orientNone, nil
}

// cycleHop returns the input node and pool of hop i of the cycle's
// traversal in orientation o — element i of directedFor(c, o) without
// building it.
func cycleHop(c cycles.Cycle, o int8, i int) (node, pool int) {
	if o == orientReverse {
		k := len(c.Nodes)
		return c.Nodes[(k-i)%k], c.Pools[k-1-i]
	}
	return c.Nodes[i], c.Pools[i]
}

// directedFor returns the directed traversal of a cycle for a non-none
// orientation.
func directedFor(c cycles.Cycle, o int8) cycles.Directed {
	if o == orientReverse {
		return c.Reverse()
	}
	return c.Forward()
}

// loopFromCycle is LoopFromDirected(g, directedFor(c, o)) without the
// intermediate Directed copy.
func loopFromCycle(g *graph.Graph, c cycles.Cycle, o int8) (*strategy.Loop, error) {
	hops := make([]strategy.Hop, len(c.Nodes))
	for i := range hops {
		node, pool := cycleHop(c, o, i)
		hops[i] = strategy.Hop{Pool: g.Pool(pool), TokenIn: g.Node(node)}
	}
	l, err := strategy.NewLoop(hops)
	if err != nil {
		return nil, fmt.Errorf("scan: directed cycle %v: %w", directedFor(c, o), err)
	}
	return l, nil
}

// markNodes flags every node of the cycle in seen (indexed by graph
// node): a loop's tokens are its cycle's nodes in either orientation.
func markNodes(seen []bool, c cycles.Cycle) {
	for _, n := range c.Nodes {
		seen[n] = true
	}
}

// appendSymbols appends the token key of every node flagged in seen and
// sorts the result — the batched price fetch's symbol list.
func appendSymbols(dst []string, g *graph.Graph, seen []bool) []string {
	for n, ok := range seen {
		if ok {
			dst = append(dst, g.Node(n))
		}
	}
	slices.Sort(dst)
	return dst
}

// enumerateTopology is the topology phase of detection: the cycle
// enumeration over the token graph, the expensive half of a scan, plus
// the pool→cycle and token→cycle inverted indexes delta scans need. With
// a cache configured it is skipped entirely whenever an earlier scan
// already enumerated a pool set with the same fingerprint and bounds —
// and the cached graph skeleton is rebound to the fresh reserves instead
// of rebuilt, so a warm scan never pays graph construction either.
// pools must already be canonical (every Engine entry point
// canonicalizes), so cached pool and node indices line up across scans.
func enumerateTopology(pools []*amm.Pool, cfg Config) (*graph.Graph, *topology, bool, error) {
	var key string
	if cfg.Cache != nil {
		key = cacheKey(Fingerprint(pools), cfg)
		if top, ok := cfg.Cache.lookup(key); ok {
			g, err := top.skel.Rebind(pools)
			if err != nil {
				return nil, nil, false, err
			}
			return g, top, true, nil
		}
	}
	g, err := graph.Build(pools)
	if err != nil {
		return nil, nil, false, err
	}
	cs, err := cycles.Enumerate(g, cfg.MinLen, cfg.MaxLen, cfg.MaxCycles)
	if err != nil {
		return nil, nil, false, err
	}
	top := newTopology(g, cs)
	if cfg.Cache != nil {
		cfg.Cache.store(key, top)
	}
	return g, top, false, nil
}

// detect builds the graph, enumerates cycles (topology phase, cached),
// orients the profitable ones, and batch-fetches every price the loops
// need (state phase — reserve-dependent, never cached). pools must be
// canonical.
func detect(ctx context.Context, pools []*amm.Pool, prices source.PriceSource, cfg Config) (*detection, error) {
	if len(pools) == 0 {
		return nil, errNoPools
	}
	m := cfg.Metrics
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	g, top, hit, err := enumerateTopology(pools, cfg)
	if err != nil {
		return nil, err
	}
	cs := top.cycles
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	d := &detection{
		graph:    g,
		top:      top,
		orient:   make([]int8, len(cs)),
		loopOf:   make([]int, len(cs)),
		cacheHit: hit,
	}
	seen := make([]bool, g.NumNodes())
	for ci, c := range cs {
		o, err := orientCycle(g, c)
		if err != nil {
			return nil, err
		}
		d.orient[ci] = o
		d.loopOf[ci] = -1
		if o == orientNone {
			continue
		}
		loop, err := loopFromCycle(g, c, o)
		if err != nil {
			return nil, err
		}
		d.loopOf[ci] = len(d.loops)
		d.loops = append(d.loops, loop)
		markNodes(seen, c)
	}

	if m != nil {
		// Topology + orientation so far; the price fetch is its own stage.
		now := time.Now()
		m.StageOrient.Observe(now.Sub(t0))
		t0 = now
	}
	d.prices, d.degraded, err = fetchPriceSymbols(ctx, prices, appendSymbols(nil, g, seen), cfg.StageTimeout)
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.StagePrices.Observe(time.Since(t0))
	}
	return d, nil
}

// fetchPriceSymbols batch-fetches prices for a sorted symbol list (see
// appendSymbols; the delta path reuses its scratch slice). The source
// must treat the slice as read-only.
//
// This is the scan's one externally-blocking stage, so the containment
// hooks live here: a positive timeout puts a deadline on the call
// (Config.StageTimeout — a hung source fails this scan, not the
// process), and a source implementing source.FallbackPriceSource may
// answer degraded (last-known-good data), which flags the whole report
// (Report.Degraded). The fetched map is also validated: a NaN or
// negative price is a failed fetch, never input to the solver.
func fetchPriceSymbols(ctx context.Context, prices source.PriceSource, symbols []string, timeout time.Duration) (strategy.PriceMap, bool, error) {
	if len(symbols) == 0 {
		return strategy.PriceMap{}, false, nil
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var (
		fetched  map[string]float64
		degraded bool
		err      error
	)
	if fb, ok := prices.(source.FallbackPriceSource); ok {
		fetched, degraded, err = fb.PricesFallback(ctx, symbols)
	} else {
		fetched, err = prices.Prices(ctx, symbols)
	}
	if err == nil {
		err = source.ValidatePrices(fetched)
	}
	if err != nil {
		return nil, false, fmt.Errorf("scan: fetch prices: %w", err)
	}
	return strategy.PriceMap(fetched), degraded, nil
}

// optimizeInto optimizes the loops named by jobs over a bounded worker
// pool and writes each outcome to out[job] directly. Dispatch is
// chunked: workers pull job indices from a shared atomic cursor (see
// forEachIndex), so per-loop dispatch costs one atomic add. Job indices
// are distinct, so workers need no lock, and the single-worker path
// runs inline — zero allocations per loop and zero per scan.
// Unprocessed jobs are left zero when ctx is cancelled.
//
// prev, when non-nil, carries each loop's previous captured result
// (indexed like loops; nil entries mean no usable capture). Strategies
// implementing strategy.WarmStarter re-optimize from it — the delta
// path's cross-block warm start; other strategies ignore it.
//
// emit, when non-nil, also receives each finished result as its worker
// completes it (see deliver) — Engine.Stream's per-loop delivery. The
// batch paths pass nil.
func optimizeInto(ctx context.Context, loops []*strategy.Loop, pm strategy.PriceMap, jobsList []int, prev []*strategy.Result, out []Result, cfg Config, emit chan<- Result) {
	if len(jobsList) == 0 {
		return
	}
	warm, _ := cfg.Strategy.(strategy.WarmStarter)
	workers := cfg.Parallelism
	if len(jobsList) < workers {
		workers = len(jobsList)
	}
	if workers <= 1 {
		for _, i := range jobsList {
			if ctx.Err() != nil {
				return
			}
			res, err := optimizeOne(ctx, cfg.Strategy, warm, loops[i], pm, prevFor(prev, i), cfg.Metrics)
			out[i] = Result{Index: i, Loop: loops[i], Result: res, Err: err}
			if emit != nil && !deliver(ctx, emit, out[i], cfg.MinProfitUSD) {
				return
			}
		}
		return
	}
	forEachIndex(ctx, cfg.Workers, workers, len(jobsList), func(k int) bool {
		i := jobsList[k]
		res, err := optimizeOne(ctx, cfg.Strategy, warm, loops[i], pm, prevFor(prev, i), cfg.Metrics)
		out[i] = Result{Index: i, Loop: loops[i], Result: res, Err: err}
		return emit == nil || deliver(ctx, emit, out[i], cfg.MinProfitUSD)
	})
}

// deliver sends one finished result to a stream consumer, dropping
// successes below minProfit (failures always go through). It reports
// false when ctx ended before the consumer took the result.
func deliver(ctx context.Context, emit chan<- Result, r Result, minProfit float64) bool {
	if r.Err == nil && r.Result.Monetized < minProfit {
		return true
	}
	select {
	case emit <- r:
		return true
	case <-ctx.Done():
		return false
	}
}

// prevFor looks up a loop's previous result in a possibly-nil slice.
func prevFor(prev []*strategy.Result, i int) *strategy.Result {
	if prev == nil {
		return nil
	}
	return prev[i]
}

// optimizeOne dispatches one loop's optimization: through the strategy's
// warm-start entry point when it has one and a previous result exists,
// the plain Optimize otherwise. A panic inside the strategy is contained
// here — the innermost frame the engine owns, inside the pooled worker
// goroutines, so a panicking custom strategy fails its loop
// (ErrStrategyPanic) instead of killing a Workers goroutine and the
// process with it. The deferred recover is open-coded by the compiler
// (one defer, not in a loop) and allocates only on the panic path, so
// the steady-state delta budget is unchanged with containment enabled.
func optimizeOne(ctx context.Context, s strategy.Strategy, warm strategy.WarmStarter, l *strategy.Loop, pm strategy.PriceMap, prev *strategy.Result, m *Metrics) (res strategy.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if m != nil {
				m.StrategyPanics.Inc()
			}
			res = strategy.Result{}
			err = fmt.Errorf("%w: %v", ErrStrategyPanic, r)
		}
	}()
	if warm != nil && prev != nil {
		return warm.OptimizeWarm(ctx, l, pm, prev)
	}
	return s.Optimize(ctx, l, pm)
}

// allJobs returns [0, n) — the job list of a full scan.
func allJobs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// assembleReport turns the complete per-loop result set (indexed by loop,
// failures included, unfiltered) into the ranked batch report, applying
// the systemic-failure check, the MinProfitUSD filter, ranking, and TopK
// truncation. reoptimized + reused must equal len(all). rank is a
// reusable buffer for the ranked indices (nil allocates one); ranking
// moves int32 indices into all, never Result values, and Report.Results
// is allocated once at its final length.
func assembleReport(d *detection, cfg Config, all []Result, reoptimized, reused int, rank []int32) (Report, error) {
	var (
		firstErr  error
		failed    int
		succeeded int
	)
	idx := rank[:0]
	for i := range all {
		r := &all[i]
		if r.Err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("scan: loop %s: %w", r.Loop, r.Err)
			}
			continue
		}
		succeeded++
		if r.Result.Monetized < cfg.MinProfitUSD {
			continue
		}
		idx = append(idx, int32(i))
	}
	if firstErr != nil && succeeded == 0 {
		// Every loop failed — a systemic cause (e.g. a price-map hole);
		// surface it rather than an empty report. Partial failures are
		// reported via Failed so callers can decide.
		return Report{}, firstErr
	}

	idx = rankTop(idx, all, cfg.TopK)
	results := make([]Result, len(idx))
	for k, i := range idx {
		results[k] = all[i]
	}
	if d.degraded && cfg.Metrics != nil {
		cfg.Metrics.DegradedScans.Inc()
	}
	return Report{
		Strategy:         cfg.Strategy.Name(),
		Parallelism:      cfg.Parallelism,
		Tokens:           d.graph.NumNodes(),
		Pools:            d.graph.NumEdges(),
		CyclesExamined:   len(d.top.cycles),
		LoopsDetected:    len(d.loops),
		Failed:           failed,
		TopologyCacheHit: d.cacheHit,
		LoopsReoptimized: reoptimized,
		LoopsReused:      reused,
		Degraded:         d.degraded,
		Results:          results,
	}, nil
}

// rankCmp orders two results for the report: Monetized descending, then
// Index ascending — a total order, since Index is unique per scan. A NaN
// profit (never produced by the built-in strategies) ranks last.
//
//arblint:hotpath
func rankCmp(all []Result, a, b int32) int {
	x, y := all[a].Result.Monetized, all[b].Result.Monetized
	switch {
	case x > y:
		return -1
	case x < y:
		return 1
	case x != y: // at least one NaN
		if x == x {
			return -1
		}
		if y == y {
			return 1
		}
	}
	return all[a].Index - all[b].Index
}

// rankTop reorders idx (indices into all) into report order and returns
// its first k entries (every entry when k <= 0). It selects in one pass
// over a k-sized heap whose root is the worst result kept so far, then
// heap-sorts the survivors in place: O(L log k) comparisons, no
// allocation, and — the order being total — the same output as a full
// sort truncated to k.
//
//arblint:hotpath
func rankTop(idx []int32, all []Result, k int) []int32 {
	if k <= 0 || k > len(idx) {
		k = len(idx)
	}
	h := idx[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftWorst(h, all, i)
	}
	for _, e := range idx[k:] {
		if rankCmp(all, e, h[0]) < 0 {
			h[0] = e
			siftWorst(h, all, 0)
		}
	}
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftWorst(h[:end], all, 0)
	}
	return h
}

// siftWorst restores the heap property below h[i]: every node ranks no
// better than its children, so h[0] is the worst-ranked entry.
//
//arblint:hotpath
func siftWorst(h []int32, all []Result, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && rankCmp(all, h[c+1], h[c]) > 0 {
			c++
		}
		if rankCmp(all, h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
