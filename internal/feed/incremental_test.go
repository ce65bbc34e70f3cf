package feed

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/chain"
	"arbloop/internal/market"
	"arbloop/internal/scan"
	"arbloop/internal/source"
)

// chainMarket mirrors a generated market onto a chain state the way
// `arbloop serve` does: tokens and pools size it (0, 0 is the paper's
// 51-token, 208-pool calibration).
func chainMarket(tb testing.TB, tokens, pools int) (*chain.State, []string) {
	tb.Helper()
	cfg := market.DefaultGeneratorConfig()
	if tokens > 0 {
		cfg.Tokens, cfg.Pools = tokens, pools
	}
	snap, err := market.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	state := chain.NewState(0)
	if err := source.MirrorToChain(state, snap.FilterPools(30_000, 100), 1_000_000); err != nil {
		tb.Fatal(err)
	}
	return state, state.PoolIDs()
}

// swapPools applies n retail swaps of 0.01–0.5% of the input reserve to
// random pools.
func swapPools(tb testing.TB, state *chain.State, ids []string, rng *rand.Rand, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		t0, t1, err := state.PoolTokens(id)
		if err != nil {
			tb.Fatal(err)
		}
		r0, r1, err := state.Reserves(id)
		if err != nil {
			tb.Fatal(err)
		}
		tok, r := t0, r0
		if rng.Intn(2) == 1 {
			tok, r = t1, r1
		}
		amount := new(big.Int).Mul(r, big.NewInt(1+rng.Int63n(50)))
		amount.Div(amount, big.NewInt(10_000))
		if amount.Sign() > 0 {
			if _, err := state.Swap(id, tok, amount); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// diffReservesByID is the dirty-set diff the watcher ran before it
// diffed by index: a map from the previous pools' IDs, then a sort. It
// is the oracle for Update.ChangedPools.
func diffReservesByID(prev, cur []*amm.Pool) []string {
	byID := make(map[string]*amm.Pool, len(prev))
	for _, p := range prev {
		byID[p.ID] = p
	}
	changed := make([]string, 0)
	for _, p := range cur {
		q, ok := byID[p.ID]
		if !ok || q.Reserve0 != p.Reserve0 || q.Reserve1 != p.Reserve1 {
			changed = append(changed, p.ID)
		}
	}
	sort.Strings(changed)
	return changed
}

// sameIDOrder reports whether two pool sets list the same IDs in the
// same order.
func sameIDOrder(prev, cur []*amm.Pool) bool {
	if len(prev) != len(cur) {
		return false
	}
	for i := range cur {
		if prev[i].ID != cur[i].ID {
			return false
		}
	}
	return true
}

// checkUpdate recomputes u's derived fields anew — a full
// fingerprint and the by-ID diff against the previous update — and
// fails when the watcher's incremental ones differ. The dirty set is
// known only when the topology held and the pools kept their order.
func checkUpdate(t *testing.T, step int, prev, u Update) {
	t.Helper()
	fp := scan.Fingerprint(u.Pools)
	topo := prev.Version == 0 || fp != prev.Fingerprint
	var changed []string
	if !topo && sameIDOrder(prev.Pools, u.Pools) {
		changed = diffReservesByID(prev.Pools, u.Pools)
	}
	if u.Fingerprint != fp || u.TopologyChanged != topo || !reflect.DeepEqual(u.ChangedPools, changed) {
		t.Fatalf("step %d: update (fp %.8s, topo %v, changed %v), want (fp %.8s, topo %v, changed %v)",
			step, u.Fingerprint, u.TopologyChanged, u.ChangedPools, fp, topo, changed)
	}
}

// The watcher's Fingerprint, TopologyChanged and ChangedPools over a
// chain source match the recomputing oracle through swaps, quiet
// blocks and new pools.
func TestRefreshMatchesOracleOverChain(t *testing.T) {
	state, ids := chainMarket(t, 0, 0)
	w := NewWatcher(source.FromChain(state, 1_000_000))
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	var prev Update
	for step := 0; step < 120; step++ {
		switch r := rng.Intn(10); {
		case r == 0 && step > 0:
			// A new pool between two existing IDs: a topology change.
			id := fmt.Sprintf("%s-x%d", ids[rng.Intn(len(ids))], step)
			p := prev.Pools[rng.Intn(len(prev.Pools))]
			if err := state.AddPool(id, p.Token0, p.Token1, big.NewInt(1e9), big.NewInt(2e9), 30); err != nil {
				t.Fatal(err)
			}
		case r == 1:
			// A quiet block: nothing moved.
		default:
			swapPools(t, state, ids, rng, 1+rng.Intn(8))
		}
		u, err := w.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkUpdate(t, step, prev, u)
		prev = u
	}
}

// The same oracle over a source that serves its pools in a new random
// order every refresh, with poisoned and duplicated pools mixed in: the
// fingerprint must see through the order, the dirty set must be nil
// whenever the order moved, and quarantine must drop exactly what the
// map-based check dropped.
func TestRefreshMatchesOracleShuffled(t *testing.T) {
	state, ids := chainMarket(t, 0, 0)
	chainSrc := source.FromChain(state, 1_000_000)
	src := &mutablePools{}
	w := NewWatcher(src)
	rng := rand.New(rand.NewSource(12))
	ctx := context.Background()
	var prev Update
	for step := 0; step < 80; step++ {
		swapPools(t, state, ids, rng, rng.Intn(6))
		pools, err := chainSrc.Pools(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(pools), func(i, j int) { pools[i], pools[j] = pools[j], pools[i] })
		}
		served := poisonSome(rng, pools)
		src.set(served, nil)
		u, err := w.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := quarantineByMap(served)
		if !samePools(u.Pools, want) {
			t.Fatalf("step %d: published %d pools, want the oracle's %d", step, len(u.Pools), len(want))
		}
		checkUpdate(t, step, prev, u)
		prev = u
	}
}

// poisonSome returns pools with, sometimes, a NaN copy and a duplicate
// of random pools inserted at random places.
func poisonSome(rng *rand.Rand, pools []*amm.Pool) []*amm.Pool {
	out := append([]*amm.Pool(nil), pools...)
	insert := func(p *amm.Pool) {
		i := rng.Intn(len(out) + 1)
		out = append(out[:i], append([]*amm.Pool{p}, out[i:]...)...)
	}
	if rng.Intn(3) == 0 {
		bad := *pools[rng.Intn(len(pools))]
		bad.Reserve0 = math.NaN()
		insert(&bad)
	}
	if rng.Intn(3) == 0 {
		dup := *pools[rng.Intn(len(pools))]
		dup.Reserve1 *= 2
		insert(&dup)
	}
	return out
}

// quarantineByMap is the filter quarantine ran before it kept a
// per-refresh ID map out of the steady state: Validate, then the first
// valid copy of each ID wins. It is the oracle for the kept set.
func quarantineByMap(pools []*amm.Pool) (kept []*amm.Pool, dropped int) {
	seen := make(map[string]bool, len(pools))
	for _, p := range pools {
		if p.Validate() != nil || seen[p.ID] {
			dropped++
			continue
		}
		seen[p.ID] = true
		kept = append(kept, p)
	}
	return kept, dropped
}

// Quarantine keeps exactly the oracle's pools on sorted and unsorted
// inputs with repeated IDs, including invalid first copies of a
// duplicated ID, whose later valid copy must keep the ID.
func TestQuarantineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		pools := make([]*amm.Pool, n)
		for i := range pools {
			p := &amm.Pool{ID: fmt.Sprintf("p%02d", rng.Intn(2*n)), Token0: "X", Token1: "Y",
				Reserve0: 1 + rng.Float64(), Reserve1: 1 + rng.Float64(), Fee: amm.DefaultFee}
			if rng.Intn(5) == 0 {
				p.Reserve0 = math.NaN()
			}
			pools[i] = p
		}
		if rng.Intn(2) == 0 {
			sort.SliceStable(pools, func(i, j int) bool { return pools[i].ID < pools[j].ID })
		}
		want, wantDropped := quarantineByMap(pools)
		w := NewWatcher(&mutablePools{})
		kept, dropped := w.quarantine(pools)
		if dropped != wantDropped || !samePools(kept, want) {
			t.Fatalf("trial %d: kept %v (dropped %d), want %v (dropped %d)",
				trial, poolIDs(kept), dropped, poolIDs(want), wantDropped)
		}
	}
}

// samePools reports whether two slices hold the same pools in order.
func samePools(a, b []*amm.Pool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func poolIDs(pools []*amm.Pool) []string {
	ids := make([]string, len(pools))
	for i, p := range pools {
		ids[i] = p.ID
	}
	return ids
}

// allocsPerRefresh is testing.AllocsPerRun for a refresh that needs
// fresh writes first: the swaps run outside the count, one Refresh
// inside it.
func allocsPerRefresh(tb testing.TB, w *Watcher, state *chain.State, ids []string, changed, runs int) float64 {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	var before, after runtime.MemStats
	var total uint64
	for i := -1; i < runs; i++ { // i = -1 warms up
		swapPools(tb, state, ids, rng, changed)
		runtime.ReadMemStats(&before)
		if _, err := w.Refresh(ctx); err != nil {
			tb.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 0 {
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total) / float64(runs)
}

// Steady-state Refresh over a chain source allocates a constant plus a
// small term per changed pool, the same at 208 and 1,000 pools. Before
// the conversion cache it cost ~15 allocations per pool: 3,135 at 208
// and 15,022 at 1,000.
func TestRefreshAllocBudget(t *testing.T) {
	const base, perChanged = 4, 2
	for _, m := range []struct{ tokens, pools int }{{0, 0}, {120, 1000}} {
		state, ids := chainMarket(t, m.tokens, m.pools)
		w := NewWatcher(source.FromChain(state, 1_000_000))
		if _, err := w.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, changed := range []int{0, 4, 32} {
			got := allocsPerRefresh(t, w, state, ids, changed, 50)
			if limit := float64(base + perChanged*changed); got > limit {
				t.Errorf("%d pools, %d swaps per refresh: %.1f allocs, want ≤ %.0f", len(ids), changed, got, limit)
			}
		}
	}
}

// BenchmarkWatcherRefresh is `make bench-feed`: one steady-state Refresh
// over a chain source after the block's retail swaps (4 at the paper's
// 208 pools, 32 at 1,000, as the end-to-end benchmark trades them). The
// swaps run with the timer stopped.
func BenchmarkWatcherRefresh(b *testing.B) {
	for _, m := range []struct{ tokens, pools, swaps int }{{0, 0, 4}, {120, 1000, 32}} {
		state, ids := chainMarket(b, m.tokens, m.pools)
		b.Run(fmt.Sprintf("pools=%d", len(ids)), func(b *testing.B) {
			w := NewWatcher(source.FromChain(state, 1_000_000))
			ctx := context.Background()
			if _, err := w.Refresh(ctx); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(19))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				swapPools(b, state, ids, rng, m.swaps)
				b.StartTimer()
				if _, err := w.Refresh(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
