package strategy

import (
	"fmt"
	"math"
	"sync"

	"arbloop/internal/convexopt"
	"arbloop/internal/linalg"
)

// ConvexOptions tunes the ConvexOptimization strategy.
type ConvexOptions struct {
	// Solver options forwarded to the barrier method; zero values select
	// solver defaults.
	Solver convexopt.Options
	// Generic routes the solve through the reference implementation —
	// closure-based constraints and a dense-Cholesky barrier method
	// (convexopt.Minimize) — instead of the structured O(n) fast path
	// (convexopt.SolveLoop). The two agree to solver tolerance
	// (property-tested); Generic is the escape hatch and the baseline the
	// convex_solver benchmarks compare against.
	Generic bool
	// ColdStart makes ConvexWarm (and the delta-scan path through
	// ConvexStrategy.OptimizeWarm) ignore previous-solution warm starts,
	// so repeated solves of the same state are bit-reproducible.
	ColdStart bool
}

// Convex solves the paper's problem (8) on the loop: maximize
// Σ_t P_t·(net amount of token t) subject to the per-pool CPMM constraints
// and per-token no-shorting constraints Δout ≥ Δin.
//
// Reduction (DESIGN.md §5): at the optimum every pool constraint is tight
// (more output never hurts), so the decision variables shrink to the
// per-hop inputs a ∈ R^n_+ with
//
//	maximize   Σ_i [ P_out(i)·F_i(a_i) − P_tok(i)·a_i ]
//	subject to F_i(a_i) ≥ a_{(i+1) mod n}   (no shorting any token)
//	           a_i ≥ 0
//
// The objective is concave (F_i concave, prices ≥ 0) and the constraints
// convex, matching the paper's convexity claim. When the loop is not an
// arbitrage loop the feasible set collapses to {0} (the §IV no-arbitrage
// theorem), which the implementation returns directly without invoking the
// solver.
//
// The solve runs on the structured fast path by default — precomputed
// per-hop CPMM coefficients, analytic F/F′/F″, and an O(n) cyclic-KKT
// Newton step with all scratch pooled, so a solve is allocation-free
// after warm-up (see convexopt.SolveLoop); ConvexOptions.Generic restores
// the reference dense solver. Either way the result never degrades below
// the MaxMax plan: when the warm start cannot find an interior point
// (near-degenerate loops with price product barely above 1) or the solver
// fails or underperforms, the always-feasible MaxMax plan is returned as
// the convex result instead of an error — one degenerate loop must not
// sink a whole-market scan.
func Convex(l *Loop, prices PriceMap, opts ConvexOptions) (Result, error) {
	return convexSolve(l, prices, opts, nil)
}

// ConvexWarm is Convex warm-started from a previous result for the same
// loop (typically the previous block's optimum, with reserves slightly
// moved). The previous plan is re-feasibilized by uniform shrinking —
// the shifted point is strictly interior again after a small shrink
// because F is strictly concave — and used as the barrier start; when no
// shrink factor lands inside (reserves moved too much, orientation
// changed, zero plan) the solve falls back to the standard MaxMax warm
// start. The optimum is independent of the start point up to solver
// tolerance, so warm starts change latency, not correctness (pass
// ConvexOptions.ColdStart to pin bit-reproducibility instead).
func ConvexWarm(l *Loop, prices PriceMap, opts ConvexOptions, prev *Result) (Result, error) {
	if opts.ColdStart {
		prev = nil
	}
	return convexSolve(l, prices, opts, prev)
}

func convexSolve(l *Loop, prices PriceMap, opts ConvexOptions, prev *Result) (Result, error) {
	if err := prices.Validate(l); err != nil {
		return Result{}, err
	}
	n := l.Len()

	profitable, err := l.Profitable()
	if err != nil {
		return Result{}, err
	}
	if !profitable {
		// §IV: no arbitrage ⇒ the unique optimum is the zero plan.
		plan := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
		return Result{
			Strategy:  NameConvex,
			Loop:      l,
			Plan:      plan,
			NetTokens: plan.NetTokens(l),
			Monetized: 0,
		}, nil
	}
	if opts.Generic {
		return convexGeneric(l, prices, opts, prev)
	}
	return convexStructured(l, prices, opts, prev)
}

// convexWS is the pooled per-solve scratch of the structured fast path:
// the coefficient arrays, the solver workspace, and the warm-start
// staging vectors. sync.Pool recycles them across goroutines, so a warm
// scanner solves with no allocation beyond the result itself.
type convexWS struct {
	prob convexopt.LoopProblem
	ws   convexopt.LoopWorkspace
	base []float64 // warm-start plan in loop indexing, before shrinking
	x0   []float64 // shrunk strictly-interior start
	amts []float64 // per-hop amounts scratch for the rotation scan
}

var convexWSPool = sync.Pool{New: func() any { return new(convexWS) }}

func (w *convexWS) reset(n int) {
	w.prob.Reset(n)
	w.base = growFloats(w.base, n)
	w.x0 = growFloats(w.x0, n)
	w.amts = growFloats(w.amts, n)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// convexStructured is the fast path: coefficients once, analytic curves,
// O(n) Newton steps, pooled scratch.
func convexStructured(l *Loop, prices PriceMap, opts ConvexOptions, prev *Result) (Result, error) {
	n := l.Len()
	tel := Telemetry()
	tel.Solves.Inc()
	w := convexWSPool.Get().(*convexWS)
	defer convexWSPool.Put(w)
	w.reset(n)

	if err := stageLoop(&w.prob, l, prices); err != nil {
		return Result{}, err
	}

	// Start point: the previous solution when it re-feasibilizes, the
	// MaxMax plan otherwise; both shrink-to-interior. bestRotation stages
	// the best single-rotation plan in w.base — the warm-start base, the
	// quality floor, and the always-feasible fallback plan all at once.
	started := prev != nil && w.startFromPrev(l, prev)
	if prev != nil {
		if started {
			tel.WarmHits.Inc()
		} else {
			tel.WarmMisses.Inc()
		}
	}
	_, mmProfit, _ := bestRotation(&w.prob, w.amts, w.base)
	if !started && !w.shrinkToInterior([]float64{0.05, 0.15, 0.4, 0.75}) {
		// Near-degenerate loop: no strictly interior point is reachable
		// in float64 (price product barely above 1). Serve the MaxMax
		// plan instead of aborting the scan (it walks the curves exactly,
		// so it is feasible even when its interior has vanished).
		tel.Fallbacks.Inc()
		return w.resultFromInputs(l, prices, w.base)
	}

	solverOpts := opts.Solver
	if solverOpts.MaxNewton == 0 {
		solverOpts.MaxNewton = 300
	}
	res, err := convexopt.SolveLoop(&w.prob, w.x0, solverOpts, &w.ws)
	if err != nil {
		tel.Fallbacks.Inc()
		return w.resultFromInputs(l, prices, w.base)
	}
	tel.NewtonIters.Add(uint64(res.NewtonIters))
	tel.OuterIters.Add(uint64(res.OuterIters))

	solved, err := w.resultFromInputs(l, prices, res.X)
	if err != nil {
		return Result{}, err
	}
	if !(solved.Monetized >= mmProfit) {
		// The solve stopped short of the single-rotation optimum — for a
		// loop whose convex optimum is the single rotation, the barrier
		// approaches it from the interior and lands a gap below. The
		// MaxMax plan is the better answer and preserves Convex ≥ MaxMax.
		tel.Fallbacks.Inc()
		return w.resultFromInputs(l, prices, w.base)
	}
	return solved, nil
}

// resultFromInputs materializes a convex result from per-hop inputs in
// loop indexing: outputs via the analytic curves, net tokens, dust
// clamping, loop-order monetization.
func (w *convexWS) resultFromInputs(l *Loop, prices PriceMap, inputs []float64) (Result, error) {
	n := l.Len()
	plan := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
	for i := 0; i < n; i++ {
		a := inputs[i]
		if !(a > 0) {
			a = 0
		}
		plan.Inputs[i] = a
		plan.Outputs[i] = w.prob.F(i, a)
	}
	net := plan.NetTokens(l)
	// Clamp barrier slack: net amounts within solver tolerance of zero are
	// zero (the true optimum satisfies no-shorting exactly).
	for t, v := range net {
		if math.Abs(v) < 1e-9 {
			net[t] = 0
		}
	}
	mon, err := Monetize(l, net, prices)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Strategy:  NameConvex,
		Loop:      l,
		Plan:      plan,
		NetTokens: net,
		Monetized: mon,
	}, nil
}

// prevShrinkEtas is the shrink schedule for previous-solution warm
// starts — tighter than the MaxMax schedule, because the previous
// optimum is typically a hair outside the new feasible set and a small
// nudge keeps the central path short.
var prevShrinkEtas = []float64{0.01, 0.05, 0.2, 0.5}

// alignPrevInputs maps prev's per-hop inputs onto l's hop indexing,
// writing them into dst (length l.Len()). prev.Loop is l itself for
// structured convex results, a rotation of it for MaxMax-shaped results;
// alignment anchors on the rotation's first token. Reports false when
// the loops don't share length and token sequence.
func alignPrevInputs(l *Loop, prev *Result, dst []float64) bool {
	n := l.Len()
	if prev.Loop == nil || prev.Loop.Len() != n || len(prev.Plan.Inputs) != n {
		return false
	}
	offset := 0
	if prev.Loop != l {
		offset = -1
		anchor := prev.Loop.Token(0)
		for i := 0; i < n; i++ {
			if l.Token(i) == anchor {
				offset = i
				break
			}
		}
		if offset < 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if prev.Loop.Token(i) != l.Token((i+offset)%n) {
				return false
			}
		}
	}
	for i := 0; i < n; i++ {
		dst[(i+offset)%n] = prev.Plan.Inputs[i]
	}
	return true
}

// startFromPrev stages prev's plan as the warm start and shrinks it to
// the interior.
func (w *convexWS) startFromPrev(l *Loop, prev *Result) bool {
	return alignPrevInputs(l, prev, w.base) && w.shrinkToInterior(prevShrinkEtas)
}

// shrinkToInterior scales w.base by each (1−η) in turn until the point is
// strictly interior, staging the result in w.x0. F strictly concave with
// F(0) = 0 gives F(c·a) > c·F(a) for 0 < c < 1, so a feasible plan turns
// strictly interior under uniform shrinking — unless the loop is so close
// to no-arbitrage that the margin vanishes in float64.
func (w *convexWS) shrinkToInterior(etas []float64) bool {
	n := len(w.base)
	for _, eta := range etas {
		c := 1 - eta
		for i := 0; i < n; i++ {
			w.x0[i] = c * w.base[i]
		}
		if w.prob.Interior(w.x0) {
			return true
		}
	}
	return false
}

// convexGeneric is the reference path: the closure-based problem handed
// to the dense barrier solver, kept verbatim as the oracle the fast path
// is property-tested against. MaxMax is computed once and reused for the
// warm start, the quality floor, and the fallback plan.
func convexGeneric(l *Loop, prices PriceMap, opts ConvexOptions, prev *Result) (Result, error) {
	n := l.Len()
	tel := Telemetry()
	tel.Solves.Inc()
	prob, err := convexProblem(l, prices)
	if err != nil {
		return Result{}, err
	}
	mm, err := MaxMax(l, prices)
	if err != nil {
		return Result{}, err
	}
	// fallback is the always-feasible MaxMax plan labeled as the convex
	// result — the answer when the barrier solve cannot run or cannot
	// beat it. The convex optimum provably dominates MaxMax, so
	// substituting it only ever under-reports profit, never fabricates.
	fallback := func() Result {
		tel.Fallbacks.Inc()
		r := mm
		r.Strategy = NameConvex
		return r
	}
	var x0 linalg.Vector
	if prev != nil {
		x0 = warmStartFromPrev(l, prev)
		if x0 != nil {
			tel.WarmHits.Inc()
		} else {
			tel.WarmMisses.Inc()
		}
	}
	if x0 == nil {
		x0, err = warmStartFromMaxMax(l, mm)
		if err != nil {
			// Near-degenerate loop (price product barely above 1): no
			// strictly interior start is reachable in float64. Serve the
			// MaxMax plan instead of aborting the scan.
			return fallback(), nil
		}
	}
	solverOpts := opts.Solver
	if solverOpts.MaxNewton == 0 {
		solverOpts.MaxNewton = 300
	}
	res, err := convexopt.Minimize(prob, x0, solverOpts)
	if err != nil {
		return fallback(), nil
	}
	tel.NewtonIters.Add(uint64(res.NewtonIters))
	tel.OuterIters.Add(uint64(res.OuterIters))

	plan := TradePlan{Inputs: make([]float64, n), Outputs: make([]float64, n)}
	for i := 0; i < n; i++ {
		a := res.X[i]
		if a < 0 {
			a = 0
		}
		out, err := l.Hop(i).Pool.AmountOut(l.tokens[i], a)
		if err != nil {
			return Result{}, fmt.Errorf("hop %d: %w", i, err)
		}
		plan.Inputs[i] = a
		plan.Outputs[i] = out
	}
	net := plan.NetTokens(l)
	// Clamp barrier slack: net amounts within solver tolerance of zero are
	// zero (the true optimum satisfies no-shorting exactly).
	for t, v := range net {
		if math.Abs(v) < 1e-9 {
			net[t] = 0
		}
	}
	mon, err := Monetize(l, net, prices)
	if err != nil {
		return Result{}, err
	}
	if !(mon >= mm.Monetized) {
		// Preserve Convex ≥ MaxMax when the barrier stalls short.
		return fallback(), nil
	}
	return Result{
		Strategy:  NameConvex,
		Loop:      l,
		Plan:      plan,
		NetTokens: net,
		Monetized: mon,
	}, nil
}

// convexProblem builds the reduced problem (8) for convexopt: variables
// a_0…a_{n−1}, minimize the negated monetized profit.
func convexProblem(l *Loop, prices PriceMap) (convexopt.Problem, error) {
	n := l.Len()
	// Per-hop data: output token price, input token price, and the pool
	// curve oriented for the hop.
	pOut := make([]float64, n)
	pIn := make([]float64, n)
	for i := 0; i < n; i++ {
		out, err := l.Hop(i).TokenOut()
		if err != nil {
			return convexopt.Problem{}, err
		}
		pOut[i] = prices[out]
		pIn[i] = prices[l.tokens[i]]
	}

	amountOut := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.AmountOut(l.tokens[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	dOut := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.DOutDIn(l.tokens[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	d2Out := func(i int, a float64) float64 {
		v, err := l.Hop(i).Pool.D2OutDIn2(l.tokens[i], a)
		if err != nil {
			return math.NaN()
		}
		return v
	}

	prob := convexopt.Problem{
		N: n,
		Objective: func(x linalg.Vector) float64 {
			s := 0.0
			for i := 0; i < n; i++ {
				s += pOut[i]*amountOut(i, x[i]) - pIn[i]*x[i]
			}
			return -s
		},
		Gradient: func(x linalg.Vector, g linalg.Vector) {
			for i := 0; i < n; i++ {
				g[i] = -(pOut[i]*dOut(i, x[i]) - pIn[i])
			}
		},
		Hessian: func(x linalg.Vector, h *linalg.Matrix) {
			for i := 0; i < n; i++ {
				h.Add(i, i, -pOut[i]*d2Out(i, x[i]))
			}
		},
	}

	// Flow constraints: a_{(i+1)%n} − F_i(a_i) ≤ 0.
	for i := 0; i < n; i++ {
		i := i
		next := (i + 1) % n
		prob.Constraints = append(prob.Constraints, convexopt.Constraint{
			Value: func(x linalg.Vector) float64 {
				return x[next] - amountOut(i, x[i])
			},
			Gradient: func(x linalg.Vector, g linalg.Vector) {
				g[next] += 1
				g[i] += -dOut(i, x[i])
			},
			Hessian: func(x linalg.Vector, h *linalg.Matrix) {
				h.Add(i, i, -d2Out(i, x[i]))
			},
		})
	}
	// Non-negativity: −a_i ≤ 0.
	for i := 0; i < n; i++ {
		i := i
		prob.Constraints = append(prob.Constraints, convexopt.Constraint{
			Value:    func(x linalg.Vector) float64 { return -x[i] },
			Gradient: func(x linalg.Vector, g linalg.Vector) { g[i] += -1 },
		})
	}
	return prob, nil
}

// warmStartFromPrev maps a previous result's plan onto l's hop indexing
// and shrinks it to the interior; nil when no shrink factor lands inside.
func warmStartFromPrev(l *Loop, prev *Result) linalg.Vector {
	base := make(linalg.Vector, l.Len())
	if !alignPrevInputs(l, prev, base) {
		return nil
	}
	for _, eta := range prevShrinkEtas {
		a := base.Scale(1 - eta)
		if interiorFeasible(l, a) {
			return a
		}
	}
	return nil
}

// warmStart builds a strictly feasible interior start from the MaxMax
// plan; see warmStartFromMaxMax.
func warmStart(l *Loop, prices PriceMap) (linalg.Vector, error) {
	mm, err := MaxMax(l, prices)
	if err != nil {
		return nil, err
	}
	return warmStartFromMaxMax(l, mm)
}

// warmStartFromMaxMax builds a strictly feasible interior start from an
// already computed MaxMax result: the best single-rotation plan is
// feasible for problem (8) with all flows positive, and shrinking it
// uniformly by (1−η) makes every flow constraint strictly slack because
// F is strictly concave with F(0) = 0 (F(c·a) > c·F(a) for 0 < c < 1).
// Starting next to the MaxMax optimum keeps the central path short — the
// convex optimum is provably ≥ and empirically near the MaxMax value
// (paper Fig. 7).
func warmStartFromMaxMax(l *Loop, mm Result) (linalg.Vector, error) {
	n := l.Len()
	if mm.Input <= 0 {
		return nil, fmt.Errorf("strategy: warm start requires a profitable loop (%s)", l)
	}
	// Map the rotated plan back onto the original hop indexing.
	offset := -1
	for i, t := range l.tokens {
		if t == mm.StartToken {
			offset = i
			break
		}
	}
	if offset < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStart, mm.StartToken)
	}
	base := make(linalg.Vector, n)
	for i := 0; i < n; i++ {
		base[(i+offset)%n] = mm.Plan.Inputs[i]
	}

	for _, eta := range []float64{0.05, 0.15, 0.4, 0.75} {
		a := base.Scale(1 - eta)
		if interiorFeasible(l, a) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("strategy: failed to find interior point for %s", l)
}

// interiorFeasible reports strict feasibility of the flow vector for the
// reduced problem (8).
func interiorFeasible(l *Loop, a linalg.Vector) bool {
	n := l.Len()
	for i := 0; i < n; i++ {
		if a[i] <= 0 {
			return false
		}
		out, err := l.Hop(i).Pool.AmountOut(l.tokens[i], a[i])
		if err != nil {
			return false
		}
		if out <= a[(i+1)%n] {
			return false
		}
	}
	return true
}
