package source

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/chain"
)

// freshPools is the conversion ChainSource made before it cached pools:
// every pool read and converted anew through the per-pool accessors. It
// is the oracle the incremental path must match bit for bit (on a state
// no other goroutine writes, where per-pool reads cannot tear).
func freshPools(t *testing.T, state *chain.State, scale float64) []*amm.Pool {
	t.Helper()
	ids := state.PoolIDs()
	pools := make([]*amm.Pool, 0, len(ids))
	for _, id := range ids {
		t0, t1, err := state.PoolTokens(id)
		if err != nil {
			t.Fatal(err)
		}
		r0, r1, err := state.Reserves(id)
		if err != nil {
			t.Fatal(err)
		}
		feeBps, err := state.PoolFee(id)
		if err != nil {
			t.Fatal(err)
		}
		f0, _ := new(big.Float).SetInt(r0).Float64()
		f1, _ := new(big.Float).SetInt(r1).Float64()
		pool, err := amm.NewPool(id, t0, t1, f0/scale, f1/scale, float64(feeBps)/amm.FeeDenominator)
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, pool)
	}
	return pools
}

// samePool reports whether two pools are bit-identical.
func samePool(a, b *amm.Pool) bool {
	return a.ID == b.ID && a.Token0 == b.Token0 && a.Token1 == b.Token1 &&
		math.Float64bits(a.Reserve0) == math.Float64bits(b.Reserve0) &&
		math.Float64bits(a.Reserve1) == math.Float64bits(b.Reserve1) &&
		math.Float64bits(a.Fee) == math.Float64bits(b.Fee)
}

// chainOps drives random reserve writes through every chain.State write
// path: single swaps, committed and reverted transactions (alone and in
// sealed blocks), and new pools.
type chainOps struct {
	state *chain.State
	rng   *rand.Rand
	// Tallies, so a test can check that every path ran.
	swaps, commits, reverts, adds int
}

// tokens of the hand-built market: parallel X/Y and Y/Z pools give the
// transactions price gaps to trade.
var chainOpsTokens = []string{"X", "Y", "Z"}

func newChainOps(t *testing.T, seed int64) *chainOps {
	t.Helper()
	o := &chainOps{state: chain.NewState(0), rng: rand.New(rand.NewSource(seed))}
	for _, p := range []struct {
		id, t0, t1 string
		r0, r1     int64
	}{
		{"pa", "X", "Y", 1e12, 1e12},
		{"pb", "X", "Y", 1e12, 1.02e12},
		{"pc", "Y", "Z", 5e11, 1e12},
		{"pd", "Y", "Z", 5e11, 0.98e12},
		{"pe", "Z", "X", 1e12, 1e12},
	} {
		if err := o.state.AddPool(p.id, p.t0, p.t1, big.NewInt(p.r0), big.NewInt(p.r1), 30); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// fraction returns amount·bps/10⁴ of a pool's reserve of tok.
func (o *chainOps) fraction(t *testing.T, id, tok string, bps int64) *big.Int {
	t.Helper()
	t0, _, err := o.state.PoolTokens(id)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1, err := o.state.Reserves(id)
	if err != nil {
		t.Fatal(err)
	}
	r := r1
	if tok == t0 {
		r = r0
	}
	out := new(big.Int).Mul(r, big.NewInt(bps))
	return out.Div(out, big.NewInt(10_000))
}

// roundTrip is a flash loan of tok through one pool and back through
// another: it commits when the second pool pays more than the first
// charged, and reverts otherwise (always, when both are the same pool).
func (o *chainOps) roundTrip(t *testing.T, first, second, tok string) chain.Tx {
	t.Helper()
	t0, t1, err := o.state.PoolTokens(first)
	if err != nil {
		t.Fatal(err)
	}
	other := t1
	if tok == t1 {
		other = t0
	}
	return chain.Tx{Borrow: tok, Amount: o.fraction(t, first, tok, 5), Steps: []chain.SwapStep{
		{PairID: first, TokenIn: tok}, {PairID: second, TokenIn: other},
	}}
}

func (o *chainOps) tally(r chain.Receipt) {
	if r.OK {
		o.commits++
	} else {
		o.reverts++
	}
}

// step applies one random write.
func (o *chainOps) step(t *testing.T, n int) {
	t.Helper()
	ids := o.state.PoolIDs()
	pairs := [][2]string{{"pa", "pb"}, {"pb", "pa"}, {"pc", "pd"}, {"pd", "pc"}}
	switch o.rng.Intn(6) {
	case 0, 1:
		id := ids[o.rng.Intn(len(ids))]
		t0, t1, _ := o.state.PoolTokens(id)
		tok := t0
		if o.rng.Intn(2) == 1 {
			tok = t1
		}
		if _, err := o.state.Swap(id, tok, o.fraction(t, id, tok, 1+o.rng.Int63n(300))); err != nil {
			t.Fatal(err)
		}
		o.swaps++
	case 2:
		pr := pairs[o.rng.Intn(len(pairs))]
		t0, t1, _ := o.state.PoolTokens(pr[0])
		tok := t0
		if o.rng.Intn(2) == 1 {
			tok = t1
		}
		o.tally(o.state.ExecuteTx(o.roundTrip(t, pr[0], pr[1], tok)))
	case 3:
		o.tally(o.state.ExecuteTx(o.roundTrip(t, "pa", "pa", "X")))
	case 4:
		pr := pairs[o.rng.Intn(len(pairs))]
		t0, _, _ := o.state.PoolTokens(pr[0])
		for _, r := range o.state.Block([]chain.Tx{o.roundTrip(t, pr[0], pr[1], t0), o.roundTrip(t, "pe", "pe", "Z")}) {
			o.tally(r)
		}
	case 5:
		i := o.rng.Intn(len(chainOpsTokens))
		t0, t1 := chainOpsTokens[i], chainOpsTokens[(i+1)%len(chainOpsTokens)]
		id := fmt.Sprintf("p%c%d", 'a'+rune(o.rng.Intn(6)), n)
		r0, r1 := big.NewInt(1e9+o.rng.Int63n(1e12)), big.NewInt(1e9+o.rng.Int63n(1e12))
		if err := o.state.AddPool(id, t0, t1, r0, r1, 30); err != nil {
			t.Fatal(err)
		}
		o.adds++
	}
}

// The incremental conversion is bit-equal to a fresh one after every
// kind of write, shares the previous call's pool exactly when a pool's
// reserves did not move, and returns a new slice every call.
func TestChainSourceIncrementalMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		o := newChainOps(t, seed)
		src := FromChain(o.state, 1_000_000)
		prev, err := src.Pools(ctx)
		if err != nil {
			t.Fatal(err)
		}
		prevByID := make(map[string]*amm.Pool)
		for step := 0; step < 300; step++ {
			for _, p := range prev {
				prevByID[p.ID] = p
			}
			o.step(t, step)
			got, err := src.Pools(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := freshPools(t, o.state, 1_000_000)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d pools, want %d", seed, step, len(got), len(want))
			}
			if &got[0] == &prev[0] {
				t.Fatalf("seed %d step %d: Pools returned the previous slice", seed, step)
			}
			for i, p := range got {
				if !samePool(p, want[i]) {
					t.Fatalf("seed %d step %d: pool %d = %+v, want %+v", seed, step, i, *p, *want[i])
				}
				q, seen := prevByID[p.ID]
				if unchanged := seen && samePool(q, p); unchanged != (q == p) {
					t.Fatalf("seed %d step %d: pool %s unchanged=%v but shared=%v", seed, step, p.ID, unchanged, q == p)
				}
			}
			prev = got
		}
		if o.swaps == 0 || o.commits == 0 || o.reverts == 0 || o.adds == 0 {
			t.Fatalf("seed %d: the random writes missed a write path: %+v", seed, *o)
		}
	}
}

// Regression: Pools used to read the pool list and then each pool under
// separate locks, so a transaction committing mid-read produced a pool
// set the chain never held. Every set Pools returns while two-pool
// transactions commit must be one of the states the chain went through.
func TestChainSourcePoolsConsistentUnderConcurrentTx(t *testing.T) {
	state := chain.NewState(0)
	// pb sells Y four times as cheaply as pa buys it back, so the flash
	// loan X→Y on pb, Y→X on pa commits for thousands of rounds.
	if err := state.AddPool("pa", "X", "Y", big.NewInt(1e12), big.NewInt(1e12), 30); err != nil {
		t.Fatal(err)
	}
	if err := state.AddPool("pb", "X", "Y", big.NewInt(1e12), big.NewInt(4e12), 30); err != nil {
		t.Fatal(err)
	}
	src := FromChain(state, 1) // scale 1: reserves convert exactly
	type view [4]float64
	snapshot := func() view {
		a0, a1, _ := state.Reserves("pa")
		b0, b1, _ := state.Reserves("pb")
		return view{intToFloat(a0), intToFloat(a1), intToFloat(b0), intToFloat(b1)}
	}
	held := map[view]bool{snapshot(): true}
	tx := chain.Tx{Borrow: "X", Amount: big.NewInt(1e6), Steps: []chain.SwapStep{
		{PairID: "pb", TokenIn: "X"}, {PairID: "pa", TokenIn: "Y"},
	}}

	const rounds = 3000
	done := make(chan struct{})
	var (
		mu       sync.Mutex
		observed []view
	)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []view
			for {
				select {
				case <-done:
					mu.Lock()
					observed = append(observed, local...)
					mu.Unlock()
					return
				default:
				}
				pools, err := src.Pools(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				local = append(local, view{pools[0].Reserve0, pools[0].Reserve1, pools[1].Reserve0, pools[1].Reserve1})
				runtime.Gosched()
			}
		}()
	}
	// Only this goroutine writes, so the state after each commit, read
	// here, is exactly what the chain held.
	for i := 0; i < rounds; i++ {
		if r := state.ExecuteTx(tx); !r.OK {
			t.Fatalf("round %d reverted: %v", i, r.Err)
		}
		held[snapshot()] = true
		runtime.Gosched() // let the readers in at GOMAXPROCS=1 too
	}
	close(done)
	wg.Wait()
	distinct := make(map[view]bool)
	for _, v := range observed {
		if !held[v] {
			t.Fatalf("Pools returned %v, a pool set the chain never held", v)
		}
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Logf("readers saw %d distinct states over %d reads: little overlap with the writer", len(distinct), len(observed))
	}
}

// intToFloat agrees with big.Float's conversion on both of its paths.
func TestIntToFloatMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(x *big.Int) {
		want, _ := new(big.Float).SetInt(x).Float64()
		if got := intToFloat(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("intToFloat(%s) = %v, want %v", x, got, want)
		}
	}
	one := big.NewInt(1)
	for bits := uint(1); bits <= 130; bits++ {
		edge := new(big.Int).Lsh(one, bits)
		check(edge)
		check(new(big.Int).Sub(edge, one))
		check(new(big.Int).Add(edge, one))
		for i := 0; i < 50; i++ {
			x := new(big.Int).Rand(rng, edge)
			check(x)
			check(new(big.Int).Neg(x))
		}
	}
}
