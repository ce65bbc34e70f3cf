package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"arbloop"
	"arbloop/internal/cex"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/feed"
	"arbloop/internal/market"
	"arbloop/internal/oplog"
	"arbloop/internal/server"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// The serving constants `arbloop serve` uses by default: integer base
// units per token on the simulator, the served report depth, and the
// snapshot filter.
const (
	serveScale = 1_000_000
	serveTopK  = 20
	minTVL     = 30_000
	minReserve = 100
)

// genesisUnix is the simulator's fixed genesis time, so no input depends
// on the wall clock.
const genesisUnix = 1_700_000_000

// stack is one market served end to end, wired the way `arbloop serve`
// wires it: chain simulator → feed.Watcher → Scanner.Watch →
// server.Encode → Server.Publish → oplog.Log.Append, with HTTP on
// loopback behind distrib.Limit.
type stack struct {
	w       *workload
	rec     *recorder
	state   *chain.State
	src     *source.ChainSource
	prices  *cex.Static
	symbols []string // sorted, for deterministic CEX ticks
	ids     []string // sorted pool IDs, for deterministic swaps
	rng     *rand.Rand
	scanner *arbloop.Scanner
	watcher *feed.Watcher
	srv     *server.Server
	tracker *distrib.Tracker
	olog    *oplog.Log
	dir     string
	httpSrv *http.Server
	base    string // http://host:port
	sse     *sseClient
	reads   *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeOnce sync.Once
	// logBytes and logWritten are the log's segment bytes and written
	// entries, measured on close.
	logBytes   int64
	logWritten uint64
}

// newStack builds and starts the serving stack for one market and waits
// until its SSE subscriber has read the first report. Everything it does
// is the set-up that setup_s measures.
func newStack(w *workload, marketSeed, flowSeed int64, rec *recorder, workDir string) (st *stack, err error) {
	cfg := market.DefaultGeneratorConfig()
	cfg.Seed = marketSeed
	if w.tokens > 0 {
		cfg.Tokens, cfg.Pools = w.tokens, w.pools
	}
	snap, err := market.Generate(cfg)
	if err != nil {
		return nil, err
	}
	filtered := snap.FilterPools(minTVL, minReserve)
	state := chain.NewState(genesisUnix)
	if err := source.MirrorToChain(state, filtered, serveScale); err != nil {
		return nil, err
	}
	st = &stack{
		w:      w,
		rec:    rec,
		state:  state,
		src:    source.FromChain(state, serveScale),
		prices: cex.NewStatic(filtered.PricesUSD),
		ids:    state.PoolIDs(),
		rng:    rand.New(rand.NewSource(flowSeed)),
	}
	for sym := range filtered.PricesUSD {
		st.symbols = append(st.symbols, sym)
	}
	sort.Strings(st.symbols)

	breaker := arbloop.NewPriceBreaker(st.prices)
	st.scanner, err = arbloop.NewScanner(st.src, breaker, scannerOptions(w, true)...)
	if err != nil {
		return nil, err
	}
	st.watcher = arbloop.NewWatcher(st.src,
		arbloop.WithHeightProbe(state.Height),
		arbloop.WithWatcherErrorHandler(func(err error) { fmt.Fprintf(os.Stderr, "blockbench: feed refresh: %v\n", err) }),
		arbloop.WithWatcherFailureMode(arbloop.FailDegrade))
	state.OnBlock(func(int64) { st.watcher.Notify() })

	st.tracker = distrib.NewTracker()
	st.srv = server.New(server.WithConnTracker(st.tracker))
	st.srv.SetDeltaStatsProbe(st.scanner.DeltaStats)
	st.srv.SetFeedStatsProbe(st.watcher.Stats)
	st.srv.SetBreakerStatsProbe(func() map[string]arbloop.BreakerState {
		return map[string]arbloop.BreakerState{"prices": breaker.State()}
	})
	breaker.RegisterMetrics(st.srv.Telemetry())
	st.scanner.Metrics().Register(st.srv.Telemetry())
	st.watcher.RegisterMetrics(st.srv.Telemetry())
	strategy.Telemetry().Register(st.srv.Telemetry())

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	if st.dir, err = os.MkdirTemp(workDir, "oplog-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	policy, err := oplog.ParseSyncPolicy("")
	if err != nil {
		return nil, err
	}
	if st.olog, err = oplog.Open(st.dir, oplog.Options{Sync: policy}); err != nil {
		return nil, err
	}
	st.srv.SetOplogStatsProbe(st.olog.Stats)
	st.olog.RegisterMetrics(st.srv.Telemetry())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	ln = distrib.Limit(ln, 0, st.tracker)
	st.httpSrv = &http.Server{Handler: st.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	// The benchmark's own subscription timestamps each feed publish; it
	// is registered before the feed runs so it sees every version.
	updates, unsubscribe := st.watcher.Subscribe()
	scans := st.scanner.Watch(ctx, st.watcher)
	st.wg.Add(4)
	go func() {
		defer st.wg.Done()
		_ = st.watcher.Run(ctx, 0) // FailDegrade: returns only on cancel
	}()
	go func() {
		defer st.wg.Done()
		defer unsubscribe()
		st.recordFeed(updates)
	}()
	go func() {
		defer st.wg.Done()
		st.scanLoop(scans)
	}()
	go func() {
		defer st.wg.Done()
		if err := st.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "blockbench: http serve: %v\n", err)
		}
	}()
	st.watcher.Notify() // prime: the first full scan

	st.reads = newClient()
	if st.sse, err = dialSSE(st.base, rec); err != nil {
		return nil, err
	}
	if _, err := st.sse.waitHeight(0, setupTimeout); err != nil {
		return nil, fmt.Errorf("first report: %w", err)
	}
	return st, nil
}

// setupTimeout bounds how long one set-up may take to serve its first
// report.
const setupTimeout = 30 * time.Second

// scannerOptions returns the scanner configuration `arbloop serve` uses
// with its default flags; delta selects the delta engine (the serving
// path) or full scans (the reference for the output check).
func scannerOptions(w *workload, delta bool) []arbloop.ScannerOption {
	return []arbloop.ScannerOption{
		arbloop.WithLoopLengths(3, 3),
		arbloop.WithStrategyName(w.strategy),
		arbloop.WithTopK(serveTopK),
		arbloop.WithDeltaScans(delta),
	}
}

// recordFeed timestamps every update the watcher publishes.
func (st *stack) recordFeed(updates <-chan feed.Update) {
	for u := range updates {
		at := now()
		var mallocs uint64
		if st.rec.traced(u.Height) {
			mallocs = heapObjects()
		}
		st.rec.feed(feedRec{version: u.Version, at: at, mallocs: mallocs, changed: len(u.ChangedPools)})
	}
}

// scanLoop is serve's scan loop: encode, publish and log each scanned
// version, timing each call.
func (st *stack) scanLoop(scans <-chan arbloop.VersionedReport) {
	for vr := range scans {
		r := scanRec{version: vr.Version, recv: now(), elapsed: int64(vr.Elapsed)}
		if vr.Err != nil {
			r.failed = true
			st.rec.scan(r)
			continue
		}
		rep := server.Encode(vr.Report, vr.Version, vr.Height)
		r.encEnd = now()
		if err := st.srv.Publish(rep, vr.Elapsed); err != nil {
			r.failed = true
			st.rec.scan(r)
			continue
		}
		r.pubEnd = now()
		_ = st.olog.Append(oplog.Entry{
			Version:    vr.Version,
			Height:     vr.Height,
			UnixNano:   time.Now().UnixNano(),
			DirtyPools: vr.ChangedPools,
			Warm:       warmLoops(vr.Report),
			Report:     rep,
		})
		r.appEnd = now()
		for _, res := range rep.Results {
			r.profit += res.ProfitUSD
		}
		r.reoptimized, r.reused = vr.Report.LoopsReoptimized, vr.Report.LoopsReused
		r.shards = vr.Report.ShardsScanned
		st.rec.scan(r)
	}
}

// maxWarmLoops matches serve's cap on warm-start records per log entry.
const maxWarmLoops = 32

// warmLoops extracts the warm-start records serve logs with each report.
func warmLoops(rep arbloop.ScanReport) []oplog.WarmLoop {
	n := min(len(rep.Results), maxWarmLoops)
	out := make([]oplog.WarmLoop, 0, n)
	for _, r := range rep.Results[:n] {
		loop := r.Result.Loop
		if loop == nil || len(r.Result.Plan.Inputs) != loop.Len() {
			continue
		}
		inputs := append([]float64(nil), r.Result.Plan.Inputs...)
		out = append(out, oplog.WarmLoop{Tokens: loop.Tokens(), Inputs: inputs})
	}
	return out
}

// noiseSwaps applies n retail swaps drawn from serve's distribution:
// a random pool, a random side, 0.01%–0.5% of the input reserve.
func (st *stack) noiseSwaps(n int) {
	for i := 0; i < n && len(st.ids) > 0; i++ {
		id := st.ids[st.rng.Intn(len(st.ids))]
		t0, t1, err := st.state.PoolTokens(id)
		if err != nil {
			continue
		}
		r0, r1, err := st.state.Reserves(id)
		if err != nil {
			continue
		}
		tokenIn, reserveIn := t0, r0
		if st.rng.Intn(2) == 1 {
			tokenIn, reserveIn = t1, r1
		}
		bps := int64(1 + st.rng.Intn(50))
		amount := new(big.Int).Mul(reserveIn, big.NewInt(bps))
		amount.Div(amount, big.NewInt(10_000))
		if amount.Sign() <= 0 {
			continue
		}
		_, _ = st.state.Swap(id, tokenIn, amount)
	}
}

// tickMax is the largest relative CEX price move of one tick.
const tickMax = 0.001

// cexTicks moves n seeded CEX prices by up to ±tickMax each.
func (st *stack) cexTicks(n int) error {
	for i := 0; i < n; i++ {
		sym := st.symbols[st.rng.Intn(len(st.symbols))]
		p, err := st.prices.Price(context.Background(), sym)
		if err != nil {
			return err
		}
		st.prices.Set(sym, p*(1+tickMax*(2*st.rng.Float64()-1)))
	}
	return nil
}

// oplogBytes returns the bytes the log has written to its segments.
func (st *stack) oplogBytes() int64 {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && e.Type().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// close stops every goroutine the stack started, waits for them, and
// removes the log directory. Idempotent.
func (st *stack) close() {
	st.closeOnce.Do(func() {
		if st.cancel != nil {
			st.cancel()
		}
		st.srv.Close()
		if st.httpSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := st.httpSrv.Shutdown(ctx); err != nil {
				_ = st.httpSrv.Close()
			}
			cancel()
		}
		if st.sse != nil {
			st.sse.close()
		}
		if st.reads != nil {
			st.reads.CloseIdleConnections()
		}
		st.wg.Wait()
		if st.olog != nil {
			if err := st.olog.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "blockbench: oplog close: %v\n", err)
			}
			st.logBytes, st.logWritten = st.oplogBytes(), st.olog.Stats().Written
		}
		if st.dir != "" {
			_ = os.RemoveAll(st.dir)
		}
	})
}

// heapObjects returns the number of heap objects allocated so far.
func heapObjects() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
