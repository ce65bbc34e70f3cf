package arbloop_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"arbloop"
	"arbloop/internal/server"
)

// mutableMarket is a PoolSource whose reserves tests move between
// refreshes — the feed-driven equivalent of retail flow.
type mutableMarket struct {
	mu    sync.Mutex
	pools []*arbloop.Pool
}

func newMutableMarket(t testing.TB) (*mutableMarket, arbloop.PriceSource) {
	t.Helper()
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	src := arbloop.FromSnapshot(filtered)
	pools, err := src.Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return &mutableMarket{pools: pools}, src
}

func (m *mutableMarket) Pools(ctx context.Context) ([]*arbloop.Pool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*arbloop.Pool, len(m.pools))
	for i, p := range m.pools {
		np, err := arbloop.NewPool(p.ID, p.Token0, p.Token1, p.Reserve0, p.Reserve1, p.Fee)
		if err != nil {
			return nil, err
		}
		out[i] = np
	}
	return out, nil
}

// snapshot returns the current pool set; pools are never mutated, so
// the copied slice is a snapshot.
func (m *mutableMarket) snapshot() []*arbloop.Pool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*arbloop.Pool(nil), m.pools...)
}

// restore makes a snapshot the current pool set.
func (m *mutableMarket) restore(pools []*arbloop.Pool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pools = append(m.pools[:0], pools...)
}

// trade moves the reserves of n random pools, preserving topology.
func (m *mutableMarket) trade(t testing.TB, rng *rand.Rand, n int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, i := range rng.Perm(len(m.pools))[:n] {
		p := m.pools[i]
		np, err := arbloop.NewPool(p.ID, p.Token0, p.Token1,
			p.Reserve0*(0.95+0.1*rng.Float64()), p.Reserve1*(0.95+0.1*rng.Float64()), p.Fee)
		if err != nil {
			t.Fatal(err)
		}
		m.pools[i] = np
	}
}

// normalize blanks the delta-path bookkeeping so delta and full reports
// can be compared field-for-field through the wire encoding.
func normalize(rep arbloop.ScanReport) server.ReportJSON {
	rep.TopologyCacheHit = false
	rep.LoopsReoptimized = 0
	rep.LoopsReused = 0
	rep.ShardsScanned = 0
	return server.Encode(rep, 0, 0)
}

// TestScanDeltaMatchesFullScanOverFeed drives the full public stack —
// Watcher dirty sets included — over random reserve updates and asserts
// every delta report is identical to a full scan of the same update.
func TestScanDeltaMatchesFullScanOverFeed(t *testing.T) {
	market, prices := newMutableMarket(t)
	rng := rand.New(rand.NewSource(41))

	deltaSc, err := arbloop.NewScanner(market, prices)
	if err != nil {
		t.Fatal(err)
	}
	fullSc, err := arbloop.NewScanner(market, prices, arbloop.WithDeltaScans(false))
	if err != nil {
		t.Fatal(err)
	}

	w := arbloop.NewWatcher(market)
	ctx := context.Background()
	sawReuse := false
	for round := 0; round < 6; round++ {
		if round > 0 {
			market.trade(t, rng, 1+rng.Intn(6))
		}
		u, err := w.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 && u.ChangedPools == nil {
			t.Fatalf("round %d: reserve-only update has no dirty set", round)
		}

		delta, err := deltaSc.ScanDelta(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		full, err := fullSc.ScanDelta(ctx, u) // delta disabled → full scan
		if err != nil {
			t.Fatal(err)
		}
		if full.Report.LoopsReused != 0 {
			t.Fatalf("round %d: WithDeltaScans(false) scanner reused %d loops", round, full.Report.LoopsReused)
		}
		if got, want := normalize(delta.Report), normalize(full.Report); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: delta report differs from full scan\ndelta: %+v\nfull:  %+v", round, got, want)
		}
		if delta.Report.LoopsReused > 0 {
			sawReuse = true
		}
	}
	if !sawReuse {
		t.Error("no round reused any loop — the delta path never engaged")
	}
}

// TestScanDeltaConcurrent exercises concurrent ScanDelta and Watch calls
// on one scanner under the race detector: the delta state must serialize
// internally while reports stay well-formed.
func TestScanDeltaConcurrent(t *testing.T) {
	market, prices := newMutableMarket(t)
	sc, err := arbloop.NewScanner(market, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(market)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	// Two Watch consumers share the scanner (and therefore its delta state).
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for vr := range sc.Watch(ctx, w) {
				if vr.Err == nil && vr.Report.LoopsReoptimized+vr.Report.LoopsReused != vr.Report.LoopsDetected {
					t.Errorf("counters do not partition: %+v", vr.Report)
				}
			}
		}()
	}
	// Two direct ScanDelta callers race the watchers.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				u := w.Latest()
				if u.Version == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				if _, err := sc.ScanDelta(ctx, u); err != nil && ctx.Err() == nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		market.trade(t, rng, 3)
		if _, err := w.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let consumers drain the last update
	w.Close()
	cancel()
	wg.Wait()
}

// TestScanDeltaSurvivesGOMAXPROCSChange pins config resolution: the
// default shard count and parallelism resolve once, at NewScanner, so a
// GOMAXPROCS change between two scans keeps the delta baseline instead
// of silently forcing a full capture (the shard count is part of the
// baseline's identity).
func TestScanDeltaSurvivesGOMAXPROCSChange(t *testing.T) {
	ctx := context.Background()
	market, prices := newMutableMarket(t)
	sc, err := arbloop.NewScanner(market, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(market)
	u, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ScanDelta(ctx, u); err != nil { // capture
		t.Fatal(err)
	}
	shards := sc.DeltaStats().Shards

	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(prev + 1)
	defer runtime.GOMAXPROCS(prev)

	market.trade(t, rand.New(rand.NewSource(5)), 3)
	u, err = w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ScanDelta(ctx, u); err != nil {
		t.Fatal(err)
	}
	st := sc.DeltaStats()
	if st.FullScans != 1 || st.DeltaScans != 1 {
		t.Errorf("after a GOMAXPROCS change: full=%d delta=%d, want 1 full then 1 delta", st.FullScans, st.DeltaScans)
	}
	if st.Shards != shards {
		t.Errorf("shard count moved %d -> %d with GOMAXPROCS", shards, st.Shards)
	}
}

// TestScanAndStreamLeaveDeltaBaseline: the one-shot entry points (Scan,
// ScanStream) run full passes without capturing — DeltaStats does not
// move, and the next ScanDelta is still a delta scan.
func TestScanAndStreamLeaveDeltaBaseline(t *testing.T) {
	ctx := context.Background()
	market, prices := newMutableMarket(t)
	sc, err := arbloop.NewScanner(market, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(market)
	u, err := w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ScanDelta(ctx, u); err != nil { // capture
		t.Fatal(err)
	}
	before := sc.DeltaStats()

	market.trade(t, rand.New(rand.NewSource(29)), 3)
	if _, err := sc.Scan(ctx); err != nil {
		t.Fatal(err)
	}
	for r := range sc.ScanStream(ctx) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := sc.DeltaStats(); got != before {
		t.Fatalf("Scan/ScanStream moved DeltaStats: %+v -> %+v", before, got)
	}

	u, err = w.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := sc.ScanDelta(ctx, u)
	if err != nil {
		t.Fatal(err)
	}
	st := sc.DeltaStats()
	if st.FullScans != before.FullScans || st.DeltaScans != before.DeltaScans+1 || vr.Report.LoopsReused == 0 {
		t.Errorf("ScanDelta after one-shot scans: stats %+v, reused %d; want a delta scan", st, vr.Report.LoopsReused)
	}
}

// TestPrimeWarmStartsConcurrentWithScan is a race regression: priming
// warm starts while another goroutine scans must be synchronized (run
// under -race). Hints staged after the first full scan are ignored.
func TestPrimeWarmStartsConcurrentWithScan(t *testing.T) {
	ctx := context.Background()
	market, prices := newMutableMarket(t)
	sc, err := arbloop.NewScanner(market, prices, arbloop.WithStrategy(arbloop.ConvexStrategy{}))
	if err != nil {
		t.Fatal(err)
	}
	hints := []arbloop.WarmHint{{Tokens: []string{"A", "B", "C"}, Inputs: []float64{1, 2, 3}}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc.PrimeWarmStarts(hints)
	}()
	go func() {
		defer wg.Done()
		if _, err := sc.Scan(ctx); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	sc.PrimeWarmStarts(hints) // after a full scan: ignored
	if _, err := sc.Scan(ctx); err != nil {
		t.Fatal(err)
	}
}
