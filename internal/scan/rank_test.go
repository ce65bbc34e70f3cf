package scan

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"arbloop/internal/cex"
	"arbloop/internal/strategy"
)

// referenceRank is the ranking assembleReport replaced: filter by
// MinProfitUSD, fully sort the Result values, truncate to TopK.
func referenceRank(all []Result, minProfit float64, topK int) []Result {
	var out []Result
	for _, r := range all {
		if r.Err == nil && r.Result.Monetized >= minProfit {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b Result) int {
		if a.Result.Monetized != b.Result.Monetized {
			if a.Result.Monetized > b.Result.Monetized {
				return -1
			}
			return 1
		}
		return a.Index - b.Index
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

// TestRankTopMatchesFullSort: index ranking with top-K selection yields
// exactly the old filter + full sort + truncate, for TopK ∈ {0, 1, 20, L,
// L+1}, with heavy profit ties, failed loops, and a MinProfitUSD filter,
// through a fresh and through a reused (oversized, dirty) rank buffer.
func TestRankTopMatchesFullSort(t *testing.T) {
	pools, prices := deltaMarket(t)
	cfg := Config{Strategy: nullStrategy{}, Parallelism: 1}.Resolve()
	d, err := detect(context.Background(), Canonicalize(pools), cex.NewStatic(prices), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const L = 300
	all := make([]Result, L)
	for i := range all {
		all[i] = Result{Index: i, Loop: d.loops[i%len(d.loops)]}
		switch {
		case rng.Intn(10) == 0:
			all[i].Err = errors.New("boom")
		case rng.Intn(3) == 0:
			all[i].Result.Monetized = float64(rng.Intn(5)) // ties
		default:
			all[i].Result.Monetized = rng.NormFloat64() * 100
		}
	}
	buf := make([]int32, 2*L)
	for i := range buf {
		buf[i] = int32(rng.Intn(L))
	}
	for _, minProfit := range []float64{0, 2, -50} {
		for _, topK := range []int{0, 1, 20, L, L + 1} {
			cfg.MinProfitUSD, cfg.TopK = minProfit, topK
			want := referenceRank(all, minProfit, topK)
			for _, rank := range [][]int32{nil, buf} {
				rep, err := assembleReport(d, cfg, all, L, 0, rank)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Results) != len(want) {
					t.Fatalf("min %v topK %d: %d results, want %d", minProfit, topK, len(rep.Results), len(want))
				}
				for k := range want {
					g, w := rep.Results[k], want[k]
					if g.Index != w.Index || g.Loop != w.Loop || g.Result.Monetized != w.Result.Monetized {
						t.Fatalf("min %v topK %d: rank %d is loop %d ($%v), want loop %d ($%v)",
							minProfit, topK, k, g.Index, g.Result.Monetized, w.Index, w.Result.Monetized)
					}
				}
			}
		}
	}
}

// TestRankTopAllocFree pins the ranking to zero allocations against a
// buffer with room for every candidate.
func TestRankTopAllocFree(t *testing.T) {
	all := make([]Result, 1000)
	for i := range all {
		all[i] = Result{Index: i, Result: strategy.Result{Monetized: float64((i * 7919) % 1000)}}
	}
	idx := make([]int32, len(all))
	allocs := testing.AllocsPerRun(20, func() {
		for i := range idx {
			idx[i] = int32(i)
		}
		rankTop(idx, all, 20)
	})
	if allocs != 0 {
		t.Fatalf("rankTop allocates %.0f per call, want 0", allocs)
	}
}
