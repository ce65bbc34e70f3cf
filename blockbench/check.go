package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"arbloop"
	"arbloop/internal/distrib"
	"arbloop/internal/server"
	"arbloop/internal/strategy"
)

// profitTol is the relative tolerance, divided by |target|, within which
// a delta scan's profit or input must match the full scan's, and within
// which Convex may trail MaxMax. Warm-started convex solves stop at a
// slightly different iterate than cold ones.
const profitTol = 1e-6

// relErr returns |got-target|/|target|, or |got| when target is 0.
func relErr(got, target float64) float64 {
	d := math.Abs(got - target)
	if target == 0 {
		return d
	}
	return d / math.Abs(target)
}

// checkFinal runs the output checks on the market's last served report,
// after its last block has been covered:
//   - /v1/report, plain and gzip, is byte-identical to the SSE event;
//   - the report equals a fresh full scan of the same pools and prices;
//   - under ConvexOptimization, no served loop earns less than MaxMax.
func (st *stack) checkFinal() error {
	st.rec.mu.Lock()
	last := st.rec.events[len(st.rec.events)-1]
	st.rec.mu.Unlock()
	if h := st.state.Height(); last.height != h {
		return fmt.Errorf("last report is for height %d, the chain is at %d", last.height, h)
	}
	for _, hdr := range []map[string]string{nil, {"Accept-Encoding": "gzip"}} {
		r := getReport(st.reads, st.base+"/v1/report", now(), hdr)
		if r.failed || !bytes.Equal(r.body, last.raw) {
			return fmt.Errorf("SSE matches reads: /v1/report %v differs from the v%d event", hdr, last.version)
		}
	}

	var served distrib.ReportJSON
	if err := json.Unmarshal(last.raw, &served); err != nil {
		return fmt.Errorf("decode served report: %w", err)
	}
	ctx := context.Background()
	pools, err := st.src.Pools(ctx)
	if err != nil {
		return err
	}
	ref, err := arbloop.NewScanner(arbloop.StaticPools(pools), st.prices, scannerOptions(st.w, false)...)
	if err != nil {
		return err
	}
	rep, err := ref.Scan(ctx)
	if err != nil {
		return fmt.Errorf("reference scan: %w", err)
	}
	if err := sameReport(served, server.Encode(rep, served.Version, served.Height)); err != nil {
		return fmt.Errorf("delta equals full: v%d: %w", served.Version, err)
	}

	if st.w.strategy != arbloop.StrategyConvex {
		return nil
	}
	prices, err := st.prices.Prices(ctx, st.symbols)
	if err != nil {
		return err
	}
	for i, r := range rep.Results {
		mm, err := strategy.MaxMax(r.Loop, prices)
		if err != nil {
			return fmt.Errorf("MaxMax of %s: %w", r.Loop, err)
		}
		if got := served.Results[i].ProfitUSD; got < mm.Monetized-profitTol*math.Abs(mm.Monetized) {
			return fmt.Errorf("convex ≥ MaxMax: %s earns %.6f under Convex, %.6f under MaxMax", r.Loop, got, mm.Monetized)
		}
	}
	return nil
}

// sameReport compares a served report with the full-scan reference: the
// same counts, the same loops in the same order, and profits and inputs
// within profitTol. The delta engine's own work counters differ by
// design and are not compared.
func sameReport(got, want distrib.ReportJSON) error {
	type counts struct{ tokens, pools, cycles, loops, failed int }
	g := counts{got.Tokens, got.Pools, got.CyclesExamined, got.LoopsDetected, got.Failed}
	w := counts{want.Tokens, want.Pools, want.CyclesExamined, want.LoopsDetected, want.Failed}
	if g != w {
		return fmt.Errorf("counts %+v, full scan %+v", g, w)
	}
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("%d results, full scan %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		a, b := got.Results[i], want.Results[i]
		if a.Index != b.Index || a.Loop != b.Loop || a.Strategy != b.Strategy || a.StartToken != b.StartToken {
			return fmt.Errorf("result %d is %s (#%d), full scan %s (#%d)", i, a.Loop, a.Index, b.Loop, b.Index)
		}
		if relErr(a.ProfitUSD, b.ProfitUSD) > profitTol || relErr(a.Input, b.Input) > profitTol {
			return fmt.Errorf("result %d %s: profit %v input %v, full scan %v %v", i, a.Loop, a.ProfitUSD, a.Input, b.ProfitUSD, b.Input)
		}
	}
	return nil
}

// checkReads compares every 200 /v1/report body with the SSE event of
// the same version: the full body byte for byte, a ?top=N body as the
// event's first N results. A version the subscriber never saw (its
// frame coalesced away) has nothing to compare against.
func checkReads(rec *recorder) error {
	raw := make(map[uint64][]byte, len(rec.events))
	for _, e := range rec.events {
		raw[e.version] = e.raw
	}
	for _, r := range rec.reads {
		if r.status != 200 {
			continue
		}
		version, top, err := parseETag(r.etag)
		if err != nil {
			return err
		}
		ev, ok := raw[version]
		if !ok {
			continue
		}
		if !isPrefixBody(r.body, ev, top) {
			return fmt.Errorf("SSE matches reads: v%d body (top=%d) differs from the event", version, top)
		}
	}
	return nil
}

// isPrefixBody reports whether body is the report ev truncated to its
// first top results (top 0: the whole report).
func isPrefixBody(body, ev []byte, top int) bool {
	if top == 0 {
		return bytes.Equal(body, ev)
	}
	head, ok := bytes.CutSuffix(body, []byte("]}"))
	if !ok || !bytes.HasPrefix(ev, head) || len(ev) <= len(head) {
		return false
	}
	next := ev[len(head)]
	return next == ',' || next == ']'
}

// parseETag splits a report ETag "v<version>-h<height>[-t<top>]".
func parseETag(etag string) (version uint64, top int, err error) {
	parts := strings.Split(strings.Trim(etag, `"`), "-")
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "v") {
		return 0, 0, fmt.Errorf("unexpected ETag %q", etag)
	}
	if version, err = strconv.ParseUint(parts[0][1:], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("unexpected ETag %q", etag)
	}
	if len(parts) == 3 && strings.HasPrefix(parts[2], "t") {
		if top, err = strconv.Atoi(parts[2][1:]); err != nil {
			return 0, 0, fmt.Errorf("unexpected ETag %q", etag)
		}
	}
	return version, top, nil
}
