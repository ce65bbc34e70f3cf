package strategy

import (
	"math"

	"arbloop/internal/amm"
	"arbloop/internal/convexopt"
)

// stageLoop writes the loop's per-hop CPMM coefficients and CEX prices
// into p (already Reset to l.Len() hops). Hop i's output token is hop
// i+1's input token by the Loop invariant, so POut needs no pool lookup.
// prices must already be validated against l.
func stageLoop(p *convexopt.LoopProblem, l *Loop, prices PriceMap) error {
	n := l.Len()
	for i := 0; i < n; i++ {
		h := l.hops[i]
		rin, rout, err := h.Pool.Reserves(l.tokens[i])
		if err != nil {
			return err
		}
		p.Gamma[i] = h.Pool.Gamma()
		p.RIn[i] = rin
		p.ROut[i] = rout
		p.PIn[i] = prices[l.tokens[i]]
		p.POut[i] = prices[l.tokens[(i+1)%n]]
	}
	return nil
}

// bestRotation is the single-start kernel behind MaxMax and the convex
// fast path's warm start: the closed-form Traditional optimum from every
// start hop r of the staged loop p, evaluated by hop index with no Loop,
// plan, or map copies. It returns the start with the largest monetized
// profit (ties keep the earliest start, as MaxMax does) and that profit.
//
// Every float operation matches what Traditional performs on the
// rotation anchored at r, in the same order: each start's Möbius map is
// composed hop by hop from the identity (amm.Mobius.Compose over
// Pool.Mobius coefficients), the input is Mobius.OptimalInput, and each
// hop's output is Pool.AmountOut's formula. So the winning start and its
// profit are bit-identical to the reference. Only the start and end
// amounts are net (intermediate hops consume exactly what the previous
// hop produced), so profit = P_start·(final − input).
//
// amts is per-hop scratch (length n). base, when non-nil, receives the
// winning start's per-hop inputs in hop indexing. finite reports whether
// every start's input and hop amounts were finite and non-negative; when
// false, Traditional would reject (or produce a non-finite plan for)
// some start, and MaxMax defers to the reference path for its exact
// error and result.
//
//arblint:hotpath
func bestRotation(p *convexopt.LoopProblem, amts, base []float64) (best int, profit float64, finite bool) {
	n := p.N()
	finite = true
	for r := 0; r < n; r++ {
		m := amm.Identity()
		for k := 0; k < n; k++ {
			i := (r + k) % n
			m = m.Compose(amm.Mobius{A: p.Gamma[i] * p.ROut[i], B: p.RIn[i], C: p.Gamma[i]})
		}
		input := m.OptimalInput()
		amt := input
		for k := 0; k < n; k++ {
			i := (r + k) % n
			if !(amt >= 0) || math.IsInf(amt, 1) {
				finite = false
			}
			amts[i] = amt
			amt = p.F(i, amt)
		}
		if math.IsNaN(amt) || math.IsInf(amt, 0) {
			finite = false
		}
		v := p.PIn[r] * (amt - input)
		if r == 0 || v > profit {
			best, profit = r, v
			copy(base, amts)
		}
	}
	return best, profit, finite
}
