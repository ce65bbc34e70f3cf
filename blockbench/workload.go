package main

import (
	"math"
	"time"

	"arbloop"
)

// workload is one traffic mix the benchmark drives through the serving
// stack. Each run serves several seeded markets one after another:
// profit and scan cost vary a lot from one generated market to the
// next, and averaging over markets keeps a run's figures steady from
// seed to seed.
type workload struct {
	name string
	// tokens and pools size the generated market (0: the paper's §VI
	// calibration, 51 tokens and 208 pools).
	tokens, pools int
	strategy      string
	// swaps and ticks are the retail swaps and CEX price ticks applied
	// before each block seals.
	swaps, ticks int
	// rate is the open-loop block rate in blocks/s; 0 selects a closed
	// loop, which seals block n+1 only after block n's report was read.
	rate float64
	// pollRate is the open-loop /v1/report?top=pollTop request rate.
	pollRate float64
	pollTop  int
	// marketSeconds is the measured time spent on each market; a run
	// serves seconds/marketSeconds markets.
	marketSeconds float64
	// fixedBlocks is how many blocks of each market every closed-loop
	// run scans whatever its speed; profit and the report digest cover
	// exactly these, so they repeat across runs.
	fixedBlocks int
	// budget is the block-to-wire budget of blocks_within_budget_frac:
	// one block interval in the open loop.
	budget time.Duration
}

func (w *workload) openLoop() bool { return w.rate > 0 }

// markets returns how many markets a run of the given length serves:
// one per marketSeconds, and at least enough for the calm quarter of
// them to hold minCalmBlocks blocks.
func (w *workload) markets(seconds float64) int {
	perMarket := float64(w.fixedBlocks)
	if w.openLoop() {
		perMarket = w.rate * w.marketSeconds
	}
	return max(4*int(math.Ceil(minCalmBlocks/perMarket)), int(math.Round(seconds/w.marketSeconds)))
}

// workloads is the benchmark's traffic, by name.
var workloads = map[string]*workload{
	// Fixed per-block costs dominate: feed refresh, frame build and fan-
	// out, and the price fetch, with a small delta scan; the only
	// workload where reads are served beside writes.
	"paper_stream": {
		name: "paper_stream", strategy: arbloop.StrategyMaxMax,
		swaps: 4, rate: 100, pollRate: 500, pollTop: 5,
		marketSeconds: 0.25, budget: 10 * time.Millisecond,
	},
	// The scan's O(loops) orient and commit stages dominate: ~7k cycles
	// and ~5k profitable loops per market.
	"wide_market": {
		name: "wide_market", tokens: 120, pools: 1000, strategy: arbloop.StrategyMaxMax,
		swaps: 32, marketSeconds: 0.5, fixedBlocks: 16, budget: 50 * time.Millisecond,
	},
	// CEX ticks dirty loops the reserve diff never sees, driving the
	// delta engine's price path and warm-started convex solves.
	"convex_cex_ticks": {
		name: "convex_cex_ticks", strategy: arbloop.StrategyConvex,
		swaps: 8, ticks: 3, marketSeconds: 0.25, fixedBlocks: 32, budget: 10 * time.Millisecond,
	},
}
