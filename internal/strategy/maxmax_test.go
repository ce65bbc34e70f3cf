package strategy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/convexopt"
)

// randomLoopN builds an n-hop loop T0→T1→…→T0 with random reserves and
// fees (profitable or not), and random prices that are sometimes zero.
func randomLoopN(tb testing.TB, rng *rand.Rand, n int) (*Loop, PriceMap) {
	tb.Helper()
	hops := make([]Hop, n)
	prices := PriceMap{}
	for i := range hops {
		in, out := fmt.Sprintf("T%d", i), fmt.Sprintf("T%d", (i+1)%n)
		fee := []float64{0.0005, 0.003, 0.01}[rng.Intn(3)]
		hops[i] = Hop{
			Pool:    amm.MustNewPool(fmt.Sprintf("p%d", i), in, out, rng.Float64()*900+100, rng.Float64()*900+100, fee),
			TokenIn: in,
		}
		if rng.Intn(8) == 0 {
			prices[in] = 0
		} else {
			prices[in] = rng.Float64() * 30
		}
	}
	l, err := NewLoop(hops)
	if err != nil {
		tb.Fatal(err)
	}
	return l, prices
}

// symmetricLoop is n identical hops (every rotation composes the same
// Möbius map), so starts with equal prices tie exactly.
func symmetricLoop(tb testing.TB, n int) *Loop {
	tb.Helper()
	hops := make([]Hop, n)
	for i := range hops {
		in, out := fmt.Sprintf("T%d", i), fmt.Sprintf("T%d", (i+1)%n)
		hops[i] = Hop{Pool: amm.MustNewPool(fmt.Sprintf("p%d", i), in, out, 100, 150, 0.003), TokenIn: in}
	}
	l, err := NewLoop(hops)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// assertSameResult compares two strategy results field by field with ==.
func assertSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Strategy != want.Strategy || got.StartToken != want.StartToken ||
		got.Input != want.Input || got.Monetized != want.Monetized {
		t.Fatalf("%s: got %s start %q input %v monetized %v, want %s start %q input %v monetized %v", label,
			got.Strategy, got.StartToken, got.Input, got.Monetized,
			want.Strategy, want.StartToken, want.Input, want.Monetized)
	}
	if !slices.Equal(got.Loop.Tokens(), want.Loop.Tokens()) {
		t.Fatalf("%s: rotated loop %v, want %v", label, got.Loop.Tokens(), want.Loop.Tokens())
	}
	if !slices.Equal(got.Plan.Inputs, want.Plan.Inputs) || !slices.Equal(got.Plan.Outputs, want.Plan.Outputs) {
		t.Fatalf("%s: plan %+v, want %+v", label, got.Plan, want.Plan)
	}
	if len(got.NetTokens) != len(want.NetTokens) {
		t.Fatalf("%s: net tokens %v, want %v", label, got.NetTokens, want.NetTokens)
	}
	for tok, v := range want.NetTokens {
		if g, ok := got.NetTokens[tok]; !ok || g != v {
			t.Fatalf("%s: net tokens %v, want %v", label, got.NetTokens, want.NetTokens)
		}
	}
}

// TestMaxMaxMatchesReference: the index-evaluated MaxMax is bit-identical
// to the best of TraditionalAll on random loops of length 2–6 (profitable
// and not, zero prices included) and on exact ties, where the earliest
// start must win.
func TestMaxMaxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 2 + trial%5
		l, prices := randomLoopN(t, rng, n)
		got, err := MaxMax(l, prices)
		if err != nil {
			t.Fatal(err)
		}
		want, err := maxMaxReference(l, prices)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("trial %d (n=%d)", trial, n), got, want)
	}

	for n := 2; n <= 6; n++ {
		l := symmetricLoop(t, n)
		equal := PriceMap{}
		for i := 0; i < n; i++ {
			equal[l.Token(i)] = 2
		}
		// All starts tie: start 0 wins.
		got, err := MaxMax(l, equal)
		if err != nil {
			t.Fatal(err)
		}
		want, err := maxMaxReference(l, equal)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("all-tie n=%d", n), got, want)
		if got.StartToken != l.Token(0) {
			t.Fatalf("all-tie n=%d: start %q, want the earliest %q", n, got.StartToken, l.Token(0))
		}
		// A zero-price start 0 loses; starts 1.. tie and start 1 wins.
		zero := PriceMap{}
		for k, v := range equal {
			zero[k] = v
		}
		zero[l.Token(0)] = 0
		got, err = MaxMax(l, zero)
		if err != nil {
			t.Fatal(err)
		}
		want, err = maxMaxReference(l, zero)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("zero-price tie n=%d", n), got, want)
		if got.StartToken != l.Token(1) {
			t.Fatalf("zero-price tie n=%d: start %q, want %q", n, got.StartToken, l.Token(1))
		}
	}
}

// TestMaxMaxRejectsLikeReference: bad price maps, and a loop whose
// composed map overflows float64 (finite but extreme reserves, so the
// optimal input is NaN), fail MaxMax with the reference's exact error.
func TestMaxMaxRejectsLikeReference(t *testing.T) {
	l := paperLoop(t)
	for _, pm := range []PriceMap{{"X": 1, "Y": 1}, {"X": 1, "Y": -1, "Z": 1}} {
		_, err := MaxMax(l, pm)
		_, want := maxMaxReference(l, pm)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("prices %v: MaxMax error %v, reference %v", pm, err, want)
		}
	}

	huge, err := NewLoop([]Hop{
		{Pool: amm.MustNewPool("h0", "X", "Y", 1, 1e200, 0.003), TokenIn: "X"},
		{Pool: amm.MustNewPool("h1", "Y", "Z", 1, 1e200, 0.003), TokenIn: "Y"},
		{Pool: amm.MustNewPool("h2", "Z", "X", 1, 1e200, 0.003), TokenIn: "Z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pm := PriceMap{"X": 1, "Y": 1, "Z": 1}
	p := convexopt.LoopProblem{}
	p.Reset(3)
	if err := stageLoop(&p, huge, pm); err != nil {
		t.Fatal(err)
	}
	if _, _, finite := bestRotation(&p, make([]float64, 3), nil); finite {
		t.Fatal("overflowing loop: kernel reports finite amounts; fixture no longer reaches the fallback")
	}
	_, err = MaxMax(huge, pm)
	_, want := maxMaxReference(huge, pm)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("overflowing loop: MaxMax error %v, reference %v", err, want)
	}
}

// TestMaxMaxAllocsOneStart pins the allocation diet: MaxMax evaluates
// every start without allocating and materializes only the winner, so it
// allocates exactly what one Traditional start does — the same count at
// n=3 and n=6.
func TestMaxMaxAllocsOneStart(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{3, 6} {
		l, prices := randomLoopN(t, rand.New(rand.NewSource(int64(n))), n)
		if _, err := MaxMax(l, prices); err != nil {
			t.Fatal(err)
		}
		mm := testing.AllocsPerRun(100, func() {
			if _, err := MaxMax(l, prices); err != nil {
				t.Fatal(err)
			}
		})
		one := testing.AllocsPerRun(100, func() {
			if _, err := Traditional(l, l.Token(n-1), prices); err != nil {
				t.Fatal(err)
			}
		})
		if mm != one {
			t.Errorf("n=%d: MaxMax allocates %.0f, one Traditional start %.0f", n, mm, one)
		}
		counts[n] = mm
	}
	if counts[3] != counts[6] {
		t.Errorf("MaxMax allocs grow with loop length: n=3 %.0f, n=6 %.0f", counts[3], counts[6])
	}
}

// BenchmarkMaxMax is the per-loop cost of the scanner's default strategy
// on a length-3 loop.
func BenchmarkMaxMax(b *testing.B) {
	l := paperLoop(b)
	prices := paperPrices()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMax(l, prices); err != nil {
			b.Fatal(err)
		}
	}
}
