// Tests for the live serving surface of the Scanner — versioned scans,
// watch streams — and the goroutine hygiene of the streaming paths: a
// cancelled or abandoned stream must wind its worker pool down to
// nothing, because a block-driven service starts one scan per block
// forever and any per-scan leak is a slow death.
package arbloop_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"arbloop"
)

// livePools builds the paper's Section V three-pool market as a static
// source plus matching prices.
func livePools(t *testing.T) (arbloop.StaticPools, arbloop.PriceSource) {
	t.Helper()
	specs := []struct {
		id, t0, t1 string
		r0, r1     float64
	}{
		{"p1", "X", "Y", 100, 200},
		{"p2", "Y", "Z", 300, 200},
		{"p3", "Z", "X", 200, 400},
	}
	pools := make(arbloop.StaticPools, len(specs))
	for i, s := range specs {
		p, err := arbloop.NewPool(s.id, s.t0, s.t1, s.r0, s.r1, arbloop.DefaultFee)
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
	}
	return pools, arbloop.NewStaticOracle(map[string]float64{"X": 2, "Y": 10.2, "Z": 20})
}

func TestScanVersionedUsesTopologyCache(t *testing.T) {
	pools, prices := livePools(t)
	sc, err := arbloop.NewScanner(pools, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(pools)
	ctx := context.Background()

	u1, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vr1, err := sc.ScanDelta(ctx, u1)
	if err != nil {
		t.Fatal(err)
	}
	if vr1.Version != 1 || vr1.Report.TopologyCacheHit {
		t.Errorf("first scan = v%d hit=%v, want v1 cold", vr1.Version, vr1.Report.TopologyCacheHit)
	}
	if vr1.Report.LoopsDetected != 1 {
		t.Errorf("loops = %d", vr1.Report.LoopsDetected)
	}

	u2, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vr2, err := sc.ScanDelta(ctx, u2)
	if err != nil {
		t.Fatal(err)
	}
	if vr2.Version != 2 || !vr2.Report.TopologyCacheHit {
		t.Errorf("second scan = v%d hit=%v, want v2 warm", vr2.Version, vr2.Report.TopologyCacheHit)
	}
	if vr2.Report.Results[0].Result.Monetized != vr1.Report.Results[0].Result.Monetized {
		t.Error("warm scan changed the result on identical state")
	}
}

func TestScannerPlainScanAlsoWarmsCache(t *testing.T) {
	pools, prices := livePools(t)
	sc, err := arbloop.NewScanner(pools, prices)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := sc.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sc.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.TopologyCacheHit || !second.TopologyCacheHit {
		t.Errorf("hits = %v,%v; want cold then warm", first.TopologyCacheHit, second.TopologyCacheHit)
	}
}

func TestWithTopologyCacheDisable(t *testing.T) {
	pools, prices := livePools(t)
	sc, err := arbloop.NewScanner(pools, prices, arbloop.WithTopologyCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := sc.Scan(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.TopologyCacheHit {
			t.Errorf("scan %d hit a disabled cache", i)
		}
	}
}

func TestWithMaxCyclesGuard(t *testing.T) {
	pools, prices := livePools(t)
	// Add a second X–Z pool: the market now has more than one cycle.
	extra, err := arbloop.NewPool("p4", "X", "Z", 300, 300, arbloop.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	dense := append(arbloop.StaticPools{}, pools...)
	dense = append(dense, extra)

	sc, err := arbloop.NewScanner(dense, prices, arbloop.WithMaxCycles(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Scan(context.Background()); err == nil {
		t.Error("dense market passed a MaxCycles(1) guard")
	}
	sc, err = arbloop.NewScanner(dense, prices)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Scan(context.Background()); err != nil {
		t.Errorf("unlimited scan failed: %v", err)
	}
}

func TestWatchEmitsPerUpdate(t *testing.T) {
	pools, prices := livePools(t)
	sc, err := arbloop.NewScanner(pools, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(pools)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reports := sc.Watch(ctx, w)
	if _, err := w.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case vr := <-reports:
		if vr.Err != nil {
			t.Fatal(vr.Err)
		}
		if vr.Version != 1 || vr.Report.LoopsDetected != 1 {
			t.Errorf("watch report = v%d loops=%d", vr.Version, vr.Report.LoopsDetected)
		}
		if vr.Elapsed <= 0 {
			t.Error("missing scan latency")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no report from watch")
	}

	// Closing the watcher ends the stream.
	w.Close()
	select {
	case _, ok := <-reports:
		if ok {
			// One buffered report may still be in flight; the close must
			// follow.
			if _, ok := <-reports; ok {
				t.Error("watch stream still open after watcher close")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not close")
	}
}

// slowStrategy delays every optimization so streams can be cancelled
// mid-flight deterministically.
type slowStrategy struct {
	delay   time.Duration
	started atomic.Int32
}

func (s *slowStrategy) Name() string { return "SlowMaxMax" }

func (s *slowStrategy) Optimize(ctx context.Context, l *arbloop.Loop, p arbloop.PriceMap) (arbloop.Result, error) {
	s.started.Add(1)
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return arbloop.Result{}, ctx.Err()
	}
	return arbloop.MaxMax(l, p)
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (with scheduling slack), dumping stacks on timeout.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestScanStreamCancelMidStreamNoLeak(t *testing.T) {
	snap := filteredSnapshot(t) // §VI market: 123 loops, enough in-flight work
	src := arbloop.FromSnapshot(snap)
	sc, err := arbloop.NewScanner(src, src,
		arbloop.WithStrategy(&slowStrategy{delay: 2 * time.Millisecond}),
		arbloop.WithParallelism(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	stream := sc.ScanStream(ctx)
	// Consume a couple of results so workers are demonstrably mid-run,
	// then cancel and drain to the close.
	for i := 0; i < 2; i++ {
		if r, ok := <-stream; !ok {
			t.Fatal("stream closed early")
		} else if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	cancel()
	for range stream {
	}
	waitGoroutines(t, baseline)
}

func TestScanStreamAbandonedNoLeak(t *testing.T) {
	snap := filteredSnapshot(t)
	src := arbloop.FromSnapshot(snap)
	strat := &slowStrategy{delay: time.Millisecond}
	sc, err := arbloop.NewScanner(src, src,
		arbloop.WithStrategy(strat),
		arbloop.WithParallelism(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	// Abandon the stream entirely — read nothing — and cancel. The
	// detection goroutine, the feeder, and every worker must exit even
	// though no one ever drains the channel.
	ctx, cancel := context.WithCancel(context.Background())
	_ = sc.ScanStream(ctx)
	for strat.started.Load() == 0 { // ensure workers actually launched
		time.Sleep(time.Millisecond)
	}
	cancel()
	waitGoroutines(t, baseline)
}

func TestWatchCancelNoLeak(t *testing.T) {
	pools, prices := livePools(t)
	sc, err := arbloop.NewScanner(pools, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(pools)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	reports := sc.Watch(ctx, w)
	if _, err := w.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	<-reports
	cancel()
	for range reports {
	}
	waitGoroutines(t, baseline)
}
