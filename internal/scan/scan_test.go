package scan

import (
	"context"
	"errors"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// paperPools builds the Section V three-pool market.
func paperPools(t *testing.T) []*amm.Pool {
	t.Helper()
	specs := []struct {
		id, t0, t1 string
		r0, r1     float64
	}{
		{"p1", "X", "Y", 100, 200},
		{"p2", "Y", "Z", 300, 200},
		{"p3", "Z", "X", 200, 400},
	}
	pools := make([]*amm.Pool, len(specs))
	for i, s := range specs {
		p, err := amm.NewPool(s.id, s.t0, s.t1, s.r0, s.r1, amm.DefaultFee)
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
	}
	return pools
}

func paperPrices() source.PriceSource {
	return cex.NewStatic(map[string]float64{"X": 2, "Y": 10.2, "Z": 20})
}

func TestRunPaperExample(t *testing.T) {
	report, err := New(Config{}, paperPrices()).Full(context.Background(), paperPools(t))
	if err != nil {
		t.Fatal(err)
	}
	if report.LoopsDetected != 1 || len(report.Results) != 1 {
		t.Fatalf("report = %+v", report)
	}
	r := report.Results[0]
	if r.Result.StartToken != "Z" || r.Result.Monetized < 200 {
		t.Errorf("result = %q $%.2f, paper Z ≈ $205.6", r.Result.StartToken, r.Result.Monetized)
	}
	if report.Strategy != strategy.NameMaxMax {
		t.Errorf("default strategy = %q", report.Strategy)
	}
}

func TestRunNoPools(t *testing.T) {
	if _, err := New(Config{}, paperPrices()).Full(context.Background(), nil); err == nil {
		t.Error("empty pool set accepted")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Config{}, paperPrices()).Full(ctx, paperPools(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// failingPrices fails every fetch, simulating a dead upstream.
type failingPrices struct{}

func (failingPrices) Prices(context.Context, []string) (map[string]float64, error) {
	return nil, errors.New("upstream down")
}

func TestRunPriceFailure(t *testing.T) {
	if _, err := New(Config{}, failingPrices{}).Full(context.Background(), paperPools(t)); err == nil {
		t.Error("price-source failure not surfaced")
	}
}

func TestStreamDetectionErrorArrivesOnChannel(t *testing.T) {
	ch := New(Config{}, failingPrices{}).Stream(context.Background(), paperPools(t))
	var got []Result
	for r := range ch {
		got = append(got, r)
	}
	if len(got) != 1 || got[0].Err == nil || got[0].Loop != nil {
		t.Errorf("stream results = %+v", got)
	}
}

// failingStrategy errors on every loop: the batch path must surface the
// error instead of returning a silently empty report.
type failingStrategy struct{}

func (failingStrategy) Name() string { return "Failing" }
func (failingStrategy) Optimize(context.Context, *strategy.Loop, strategy.PriceMap) (strategy.Result, error) {
	return strategy.Result{}, errors.New("solver exploded")
}

func TestRunAllLoopsFailing(t *testing.T) {
	_, err := New(Config{Strategy: failingStrategy{}}, paperPrices()).Full(context.Background(), paperPools(t))
	if err == nil {
		t.Error("systemic per-loop failure not surfaced")
	}
}
