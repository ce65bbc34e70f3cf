package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"arbloop/internal/distrib"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {10, 0}, {11, 100.0 / 11}, {20, 50}, {100, 90}, {1000, 99}, {400, 97.5}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// At the returned percentile exactly tailSamples lie beyond the
	// nearest-rank value.
	for _, n := range []int{100, 250, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, tailPercentile(n))
		if beyond := n - 1 - int(v); beyond != tailSamples {
			t.Errorf("n=%d: %d samples beyond the tail percentile, want %d", n, beyond, tailSamples)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 50) != 0 {
		t.Error("empty quantile not 0")
	}
}

func TestCoverMatchesCoalescedBlocks(t *testing.T) {
	for _, c := range []struct {
		name            string
		blocks, reports []int64
		want            []int
	}{
		{"one report per block", []int64{1, 2, 3}, []int64{0, 1, 2, 3}, []int{1, 2, 3}},
		// Blocks 2 and 3 sealed while block 1 was being scanned: both are
		// first visible in the report at height 3.
		{"coalesced", []int64{1, 2, 3, 4}, []int64{0, 1, 3, 4}, []int{1, 2, 2, 3}},
		{"uncovered tail", []int64{1, 2, 3}, []int64{0, 2}, []int{1, 1, -1}},
		{"no reports", []int64{1}, nil, []int{-1}},
	} {
		if got := cover(c.blocks, c.reports); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: cover = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 30}, {60, 70}}, 70},
		// Overlapping children cover their union once.
		{"overlapping", []interval{{10, 30}, {20, 50}, {60, 70}}, 50},
		// Only the part of a child inside the span counts.
		{"clipped", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside", []interval{{100, 120}}, 100},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// The critical-path spans of a block tile it from t0 to the read, so
// their durations plus the unattributed remainder equal its
// block-to-wire time, whatever order the boundaries were observed in.
func TestUnattributedRemainder(t *testing.T) {
	s := &scanRec{recv: 500, elapsed: 300, encEnd: 520, pubEnd: 600, appEnd: 640}
	for _, c := range []struct {
		name         string
		b            blockRec
		coverSeal    int64
		f            *feedRec
		read         int64
		unattributed int64
		late         int64
	}{
		{"in order", blockRec{t0: 100, seal: 100}, 100, &feedRec{at: 150}, 700, 0, 0},
		// The benchmark's feed subscription woke after the scan began:
		// the feed span ends at the scan start, the queue span is empty.
		{"late feed wake", blockRec{t0: 100, seal: 100}, 100, &feedRec{at: 250}, 700, 0, 0},
		{"no feed record", blockRec{t0: 100, seal: 100}, 100, nil, 700, 0, 0},
		// The subscriber read the event before Publish returned.
		{"read before publish returned", blockRec{t0: 100, seal: 100}, 100, &feedRec{at: 150}, 580, 0, 0},
		// An open-loop block held past its due time by its predecessor.
		{"held", blockRec{t0: 40, seal: 100}, 100, &feedRec{at: 150}, 700, 0, 60},
		// A block covered by a later block's report: the time between
		// the two seals belongs to no layer.
		{"coalesced", blockRec{t0: 60, seal: 60}, 100, &feedRec{at: 150}, 700, 40, 0},
	} {
		p := blockPath(c.b, c.coverSeal, c.f, s, c.read)
		var tot layerTotals
		tot.add(0, c.b, p, interval{s.pubEnd, s.appEnd})
		sum := tot.unattributed
		for _, d := range tot.self {
			if d < 0 {
				t.Errorf("%s: negative span %v", c.name, tot.self)
			}
			sum += d
		}
		if b2w := c.read - c.b.t0; sum != b2w || tot.b2w != b2w {
			t.Errorf("%s: spans %v + unattributed %d = %d, block-to-wire %d", c.name, tot.self, tot.unattributed, sum, b2w)
		}
		if tot.unattributed != c.unattributed {
			t.Errorf("%s: unattributed %d, want %d", c.name, tot.unattributed, c.unattributed)
		}
		if tot.self[0] != c.late {
			t.Errorf("%s: gen.late %d, want %d", c.name, tot.self[0], c.late)
		}
	}
}

func TestReadBodyChecks(t *testing.T) {
	ev := []byte(`{"version":3,"results":[{"index":1},{"index":2},{"index":3}]}`)
	for _, c := range []struct {
		body string
		top  int
		want bool
	}{
		{string(ev), 0, true},
		{`{"version":3,"results":[{"index":1},{"index":2}]}`, 2, true},
		{`{"version":3,"results":[{"index":1},{"index":2},{"index":3}]}`, 5, true},
		{`{"version":3,"results":[{"index":1},{"index":9}]}`, 2, false},
		// A cut inside a result is not a prefix of whole results.
		{`{"version":3,"results":[{"index":1},{"ind]}`, 2, false},
		{`{"version":4,"results":[{"index":1}]}`, 1, false},
	} {
		if got := isPrefixBody([]byte(c.body), ev, c.top); got != c.want {
			t.Errorf("isPrefixBody(%s, top=%d) = %v, want %v", c.body, c.top, got, c.want)
		}
	}
	for _, c := range []struct {
		etag     string
		version  uint64
		top      int
		wantsErr bool
	}{
		{`"v12-h11"`, 12, 0, false},
		{`"v12-h11-t5"`, 12, 5, false},
		{`W/"x"`, 0, 0, true},
	} {
		v, top, err := parseETag(c.etag)
		if (err != nil) != c.wantsErr || v != c.version || top != c.top {
			t.Errorf("parseETag(%s) = %d, %d, %v", c.etag, v, top, err)
		}
	}
	if h := reportHeight([]byte(`{"version":5,"height":42,"strategy":"x"}`)); h != 42 {
		t.Errorf("reportHeight = %d", h)
	}
	if h := reportHeight([]byte(`{"version":1,"strategy":"x"}`)); h != 0 {
		t.Errorf("reportHeight without a height = %d", h)
	}
}

// The metrics a run prints are exactly the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	got := func(m map[string]metric) []string {
		var out []string
		for k, v := range m {
			out = append(out, k+" "+v.Unit)
		}
		sort.Strings(out)
		return out
	}
	e2e, perLayer := syntheticRun(t)
	if want := names(spec.EndToEnd); !reflect.DeepEqual(got(e2e), want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json %v", got(e2e), want)
	}
	if want := names(spec.PerLayer); !reflect.DeepEqual(got(perLayer), want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json %v", got(perLayer), want)
	}
}

// syntheticRun computes both metric sets from a hand-built market run
// of minCalmBlocks traced blocks.
func syntheticRun(t *testing.T) (map[string]metric, map[string]metric) {
	t.Helper()
	rec := &recorder{trace: true}
	rec.scans = append(rec.scans, scanRec{version: 1, elapsed: 1000})
	rec.events = append(rec.events, eventRec{version: 1, raw: []byte(`{}`)})
	for h := int64(1); h <= minCalmBlocks; h++ {
		base := h * 10_000
		v := uint64(h + 1)
		rec.blocks = append(rec.blocks, blockRec{height: h, genStart: base - 50, genEnd: base - 10, seal: base, t0: base, mallocs: 100})
		rec.feeds = append(rec.feeds, feedRec{version: v, at: base + 100, mallocs: 400, changed: 4})
		rec.scans = append(rec.scans, scanRec{version: v, recv: base + 500, elapsed: 350, encEnd: base + 520, pubEnd: base + 600, appEnd: base + 620, profit: 10})
		rec.events = append(rec.events, eventRec{version: v, height: h, read: base + 700, raw: []byte(`{"height":1}`)})
		rec.reads = append(rec.reads, readRec{due: base + 800, done: base + 900, status: 200})
	}
	m := &marketRun{rec: rec, start: 0, end: (minCalmBlocks + 1) * 10_000, setup: 1000}
	w := &workload{name: "synthetic", fixedBlocks: 10, budget: 1000}
	e2e, attempted, failed, _, err := endToEnd(w, []*marketRun{m})
	if err != nil {
		t.Fatal(err)
	}
	if attempted != 2*minCalmBlocks || failed != 0 {
		t.Errorf("attempted %d failed %d", attempted, failed)
	}
	if got := e2e["block_to_wire_p50_ms"].Value; got != ms(700) {
		t.Errorf("block_to_wire_p50_ms = %v", got)
	}
	dir := t.TempDir()
	perLayer, err := perLayer([]*marketRun{m}, dir+"/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if got := perLayer["feed.allocs_per_block"].Value; got != 300 {
		t.Errorf("feed.allocs_per_block = %v", got)
	}
	return e2e, perLayer
}

func TestCalmerKeepsLowStealQuarter(t *testing.T) {
	shares := []float64{0.3, 0.05, 0.2, 0, 0.5, 0.1, 0.4, 0.45}
	if got, want := calmer(shares), []int{3, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("calmer = %v, want %v", got, want)
	}
	if got := calmMedian([]float64{9, 2, 3, 1, 8, 7, 6, 5}, shares); got != 1 {
		t.Errorf("calmMedian = %v, want 1", got)
	}
	// A quarter rounds up, and without steal readings every item ties
	// and the first ones are kept.
	if got, want := calmer(make([]float64, 5)), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("calmer of unknown shares = %v, want %v", got, want)
	}
}

func TestSameReport(t *testing.T) {
	base := func() distrib.ReportJSON {
		return distrib.ReportJSON{Tokens: 3, Pools: 3, CyclesExamined: 1, LoopsDetected: 2, Results: []distrib.ResultJSON{
			{Index: 0, Loop: "A→B→C→A", ProfitUSD: 10, Input: 1},
			{Index: 1, Loop: "B→C→D→B", ProfitUSD: 5, Input: 2},
		}}
	}
	if err := sameReport(base(), base()); err != nil {
		t.Errorf("identical reports: %v", err)
	}
	near := base()
	near.Results[0].ProfitUSD *= 1 + profitTol/2
	if err := sameReport(near, base()); err != nil {
		t.Errorf("profit within tolerance: %v", err)
	}
	for name, mutate := range map[string]func(*distrib.ReportJSON){
		"profit":  func(r *distrib.ReportJSON) { r.Results[1].ProfitUSD *= 1 + 2*profitTol },
		"order":   func(r *distrib.ReportJSON) { r.Results[0], r.Results[1] = r.Results[1], r.Results[0] },
		"missing": func(r *distrib.ReportJSON) { r.Results = r.Results[:1] },
		"counts":  func(r *distrib.ReportJSON) { r.LoopsDetected++ },
	} {
		got := base()
		mutate(&got)
		if sameReport(got, base()) == nil {
			t.Errorf("%s: differing reports compared equal", name)
		}
	}
}
