package scan

import (
	"context"
	"errors"
	"math"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cycles"
)

// reservesMoved returns the paper pools with every reserve perturbed —
// same topology, different state.
func reservesMoved(t *testing.T) []*amm.Pool {
	t.Helper()
	pools := paperPools(t)
	out := make([]*amm.Pool, len(pools))
	for i, p := range pools {
		moved, err := amm.NewPool(p.ID, p.Token0, p.Token1, p.Reserve0*1.1, p.Reserve1*0.9, p.Fee)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = moved
	}
	return out
}

func TestFingerprintIgnoresReserves(t *testing.T) {
	a := Fingerprint(paperPools(t))
	b := Fingerprint(reservesMoved(t))
	if a != b {
		t.Error("reserve move changed the topology fingerprint")
	}
}

func TestFingerprintSeesTopology(t *testing.T) {
	base := paperPools(t)
	fp := Fingerprint(base)

	extra, err := amm.NewPool("p4", "X", "W", 50, 50, amm.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(append(append([]*amm.Pool{}, base...), extra)) == fp {
		t.Error("added pool kept the fingerprint")
	}
	if Fingerprint(base[:2]) == fp {
		t.Error("removed pool kept the fingerprint")
	}

	// Fee change is a topology change: cached orientations assume it.
	refeed, err := amm.NewPool(base[0].ID, base[0].Token0, base[0].Token1, base[0].Reserve0, base[0].Reserve1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint([]*amm.Pool{refeed, base[1], base[2]}) == fp {
		t.Error("fee change kept the fingerprint")
	}

	// Pool order is canonicalized away: a source returning the same set
	// in a different order is the same topology (cycle indices are
	// positional against the *canonical* order, not the input order).
	if Fingerprint([]*amm.Pool{base[1], base[0], base[2]}) != fp {
		t.Error("reordered pools changed the fingerprint")
	}
}

func TestCacheWarmScanMatchesCold(t *testing.T) {
	cache := NewCache(0)
	e := New(Config{Cache: cache}, paperPrices())
	ctx := context.Background()

	cold, err := e.Full(ctx, paperPools(t))
	if err != nil {
		t.Fatal(err)
	}
	if cold.TopologyCacheHit {
		t.Error("first scan reported a cache hit")
	}

	// Same topology, moved reserves: must hit the cache and still produce
	// a correct (freshly oriented and optimized) report.
	warm, err := e.Full(ctx, reservesMoved(t))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.TopologyCacheHit {
		t.Error("topology-identical rescan missed the cache")
	}
	if warm.CyclesExamined != cold.CyclesExamined {
		t.Errorf("cycles: warm %d != cold %d", warm.CyclesExamined, cold.CyclesExamined)
	}

	// The warm report must equal a cache-free scan of the same pools.
	fresh, err := New(Config{}, paperPrices()).Full(ctx, reservesMoved(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Results) != len(fresh.Results) {
		t.Fatalf("results: warm %d != fresh %d", len(warm.Results), len(fresh.Results))
	}
	for i := range warm.Results {
		w, f := warm.Results[i], fresh.Results[i]
		if w.Index != f.Index || w.Result.Monetized != f.Result.Monetized || w.Result.StartToken != f.Result.StartToken {
			t.Errorf("result %d: warm %+v != fresh %+v", i, w.Result, f.Result)
		}
	}

	stats := cache.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", stats)
	}
}

func TestCacheKeyedByEnumerationBounds(t *testing.T) {
	cache := NewCache(0)
	ctx := context.Background()
	if _, err := New(Config{Cache: cache, MinLen: 3, MaxLen: 3}, paperPrices()).Full(ctx, paperPools(t)); err != nil {
		t.Fatal(err)
	}
	// Different bounds over the same fingerprint must not reuse the entry.
	rep, err := New(Config{Cache: cache, MinLen: 2, MaxLen: 3}, paperPrices()).Full(ctx, paperPools(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TopologyCacheHit {
		t.Error("scan with different length bounds hit the other bounds' entry")
	}
	if got := cache.Stats().Entries; got != 2 {
		t.Errorf("entries = %d, want 2", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.store("a", &topology{})
	c.store("b", &topology{})
	if _, ok := c.lookup("a"); !ok { // refresh a → b is now LRU
		t.Fatal("a missing")
	}
	c.store("c", &topology{})
	if _, ok := c.lookup("b"); ok {
		t.Error("b survived eviction past capacity")
	}
	if _, ok := c.lookup("a"); !ok {
		t.Error("recently used a was evicted")
	}
	if _, ok := c.lookup("c"); !ok {
		t.Error("newest c was evicted")
	}
}

func TestMaxCyclesCapsEnumeration(t *testing.T) {
	// The paper market has one 3-cycle; a cap of 0 means unlimited, and a
	// dense 4-token market exceeds a cap of 1.
	pools := paperPools(t)
	extra, err := amm.NewPool("p4", "X", "Z", 300, 300, amm.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	pools = append(pools, extra) // creates additional cycles

	if _, err := New(Config{MaxCycles: 1}, paperPrices()).Full(context.Background(), pools); !errors.Is(err, cycles.ErrTooMany) {
		t.Errorf("err = %v, want ErrTooMany", err)
	}
	if _, err := New(Config{}, paperPrices()).Full(context.Background(), pools); err != nil {
		t.Errorf("unlimited scan failed: %v", err)
	}
}

// TestFingerprintGolden pins the digest: a topology cache, a persisted
// baseline or a peer comparing fingerprints across versions must see the
// same value for the same topology. The values were taken from the
// per-field io.Writer implementation this buffered one replaced.
func TestFingerprintGolden(t *testing.T) {
	pools, _ := deltaMarket(t)
	odd := []*amm.Pool{
		{ID: "", Token0: "a", Token1: "bc", Reserve0: 1, Reserve1: 1, Fee: 0},
		{ID: "ab", Token0: "c", Token1: "", Reserve0: 1, Reserve1: 1, Fee: math.Nextafter(1, 0)},
		{ID: "zé\x00漢", Token0: string(make([]byte, 300)), Token1: "x", Reserve0: 1, Reserve1: 1, Fee: 0.003},
	}
	for _, tc := range []struct {
		name  string
		pools []*amm.Pool
		want  string
	}{
		{"generated market", pools, "c9189a67f6de98ae82bf83590bd516ed751abefd04a9018bacd49e090f3217f6"},
		{"paper pools", paperPools(t), "36ea2960e5ed51742432e9ba3746b233f6ef5c5e1c93584281e03bf56e8ab4df"},
		{"odd fields", odd, "c4c30692582e21dd45891be2343441c56498884ba5fa67614eee09b54f740f64"},
		{"empty", nil, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		if got := Fingerprint(tc.pools); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintAllocs pins Fingerprint's allocations to a constant:
// the per-field writes it replaced cost 6 allocations per pool.
func TestFingerprintAllocs(t *testing.T) {
	pools, _ := deltaMarket(t)
	if got := testing.AllocsPerRun(20, func() { Fingerprint(pools) }); got > 4 {
		t.Errorf("Fingerprint of %d pools = %.0f allocs, want ≤ 4", len(pools), got)
	}
}
