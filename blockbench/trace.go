package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// span is one layer's interval on one block's path to the wire, taken
// around the benchmark's own calls into that layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a block's root span
	Name   string `json:"name"`
	Market int    `json:"market"`
	Height int64  `json:"height"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// critical lists, in order, the layers that tile a block's path from
// its t0 to the subscriber's read. The oplog append runs beside the wire
// write, off this path.
var critical = []string{"gen.late", "feed", "queue", "scan", "encode", "publish", "wire"}

// path holds the boundaries of one block's critical path, in order:
// t0, seal, the covering block's seal, feed publish, scan start, scan
// end, encode end, publish end, read.
type path [9]int64

// blockPath assembles the boundaries of a covered block's path. f may
// be nil when the benchmark's feed subscription missed the version; the
// feed span then ends where the scan starts. Boundaries are forced into
// order and capped at the read: the publish can race the subscriber's
// read, and the benchmark's feed subscription can wake after the scan
// has begun.
func blockPath(b blockRec, coverSeal int64, f *feedRec, s *scanRec, read int64) path {
	scanStart := s.recv - s.elapsed
	pub := scanStart
	if f != nil {
		pub = min(f.at, scanStart)
	}
	c := path{b.t0, b.seal, coverSeal, pub, scanStart, s.recv, s.encEnd, s.pubEnd, read}
	for i := 1; i < len(c); i++ {
		c[i] = min(max(c[i], c[i-1]), read)
	}
	return c
}

// spans returns the critical-path spans of a path, in critical order.
// The gap between a block's own seal and its covering block's seal
// (coalescing) belongs to no layer.
func (c path) spans() [7]interval {
	return [7]interval{
		{c[0], c[1]}, {c[2], c[3]}, {c[3], c[4]}, {c[4], c[5]},
		{c[5], c[6]}, {c[6], c[7]}, {c[7], c[8]},
	}
}

// layerTotals accumulates per-layer self times over traced blocks.
type layerTotals struct {
	n            int
	self         [7]int64
	unattributed int64
	b2w          int64
	feedAllocs   []float64
	spans        []span
}

// add records one traced block's spans.
func (t *layerTotals) add(market int, b blockRec, c path, appendIv interval) {
	root := interval{c[0], c[8]}
	ivs := c.spans()
	t.n++
	t.b2w += root.end - root.start
	rootID := len(t.spans)
	t.spans = append(t.spans, span{ID: rootID, Parent: -1, Name: "block", Market: market, Height: b.height, Start: root.start, End: root.end})
	for i, iv := range ivs {
		t.self[i] += selfTime(iv, nil)
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: rootID, Name: critical[i], Market: market, Height: b.height, Start: iv.start, End: iv.end})
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: rootID, Name: "oplog.append", Market: market, Height: b.height, Start: appendIv.start, End: appendIv.end})
	t.unattributed += selfTime(root, ivs[:])
}

// perLayer computes the traced run's per-layer metrics and writes its
// spans to traceFile.
func perLayer(runs []*marketRun, traceFile string) (map[string]metric, error) {
	var (
		t                                   layerTotals
		traced, untraced, all, late, gen    []float64
		covered, coalesced, blocks          int
		changed, feedFails, reads, notMod   float64
		feeds, scans                        float64
		reopt, reused, shards               float64
		appendNs, frameBytes, events        float64
		orientNs, pricesNs, optNs, commitNs int64
		orientN, pricesN, optN, commitN     uint64
		solves, warmHit, warmMiss, fallback float64
		newton, evictions, dropped          float64
		logBytes, logWritten                float64
		fullScans                           uint64
		firstFull                           []float64
	)
	for _, m := range runs {
		feedBy := make(map[uint64]*feedRec, len(m.rec.feeds))
		for i := range m.rec.feeds {
			f := &m.rec.feeds[i]
			feedBy[f.version] = f
			if f.version > 1 {
				feeds++
				changed += float64(f.changed)
			}
		}
		scanBy := make(map[uint64]*scanRec, len(m.rec.scans))
		for i := range m.rec.scans {
			s := &m.rec.scans[i]
			scanBy[s.version] = s
			switch {
			case s.version == 1:
				firstFull = append(firstFull, ms(s.elapsed))
			case !s.failed:
				scans++
				reopt += float64(s.reoptimized)
				reused += float64(s.reused)
				shards += float64(s.shards)
				appendNs += float64(s.appEnd - s.pubEnd)
			}
		}
		blockBy := make(map[int64]blockRec, len(m.rec.blocks))
		for _, b := range m.rec.blocks {
			blockBy[b.height] = b
		}
		for _, v := range m.view() {
			blocks++
			gen = append(gen, ms(v.b.genEnd-v.b.genStart))
			late = append(late, ms(v.b.late()))
			if v.ev == nil {
				continue
			}
			covered++
			if !v.ownScan {
				coalesced++
			}
			all = append(all, ms(v.b2w))
			s := scanBy[v.ev.version]
			if !m.rec.traced(v.b.height) || s == nil || s.failed {
				untraced = append(untraced, ms(v.b2w))
				continue
			}
			traced = append(traced, ms(v.b2w))
			f := feedBy[v.ev.version]
			cover := blockBy[v.ev.height]
			t.add(m.index, v.b, blockPath(v.b, cover.seal, f, s, v.ev.read), interval{s.pubEnd, s.appEnd})
			if f != nil && f.mallocs > 0 && cover.mallocs > 0 {
				t.feedAllocs = append(t.feedAllocs, float64(f.mallocs)-float64(cover.mallocs))
			}
		}
		events += float64(m.frames)
		frameBytes += float64(m.frameBytes)
		for _, r := range m.rec.reads {
			reads++
			if r.status == 304 {
				notMod++
			}
		}
		a, b := m.after, m.before
		feedFails += float64(a.feed.Failures-b.feed.Failures) + float64(a.feed.Quarantined-b.feed.Quarantined)
		orientNs += a.orient.SumNanos - b.orient.SumNanos
		orientN += a.orient.Count() - b.orient.Count()
		pricesNs += a.prices.SumNanos - b.prices.SumNanos
		pricesN += a.prices.Count() - b.prices.Count()
		optNs += a.optimize.SumNanos - b.optimize.SumNanos
		optN += a.optimize.Count() - b.optimize.Count()
		commitNs += a.commit.SumNanos - b.commit.SumNanos
		commitN += a.commit.Count() - b.commit.Count()
		solves += float64(a.solves - b.solves)
		warmHit += float64(a.warmHits - b.warmHits)
		warmMiss += float64(a.warmMisses - b.warmMisses)
		fallback += float64(a.fallbacks - b.fallbacks)
		newton += float64(a.newtonIters - b.newtonIters)
		evictions += float64(a.evicted - b.evicted)
		dropped += float64(a.oplog.Dropped - b.oplog.Dropped)
		logBytes += float64(m.logBytes)
		logWritten += float64(m.logWritten)
		fullScans = max(fullScans, a.delta.FullScans)
	}
	if t.n == 0 {
		return nil, fmt.Errorf("no traced blocks")
	}
	n := float64(t.n)
	perBlock := func(ns int64) float64 { return ms(ns) / n }
	meanMs := func(ns int64, count uint64) float64 { return ratio(ms(ns), float64(count)) }
	reoptPerScan := ratio(reopt, scans)
	sAll := sortedCopy(all)
	tail := math.Min(99, tailPercentile(len(sAll)))
	p50t, p50u := quantile(sortedCopy(traced), 50), quantile(sortedCopy(untraced), 50)

	out := map[string]metric{
		"gen.ms_per_block":                 {mean(gen), "ms"},
		"gen.late_p99_ms":                  {quantile(sortedCopy(late), 99), "ms"},
		"feed.ms_per_block":                {perBlock(t.self[1]), "ms"},
		"feed.allocs_per_block":            {mean(t.feedAllocs), "count"},
		"feed.changed_pools_per_block":     {ratio(changed, feeds), "count"},
		"feed.failures":                    {feedFails, "count"},
		"queue.ms_per_block":               {perBlock(t.self[2]), "ms"},
		"queue.coalesced_frac":             {ratio(float64(coalesced), float64(covered)), "ratio"},
		"scan.ms_per_block":                {perBlock(t.self[3]), "ms"},
		"scan.orient_ms":                   {meanMs(orientNs, orientN), "ms"},
		"scan.prices_ms":                   {meanMs(pricesNs, pricesN), "ms"},
		"scan.optimize_ms":                 {meanMs(optNs, optN), "ms"},
		"scan.commit_ms":                   {meanMs(commitNs, commitN), "ms"},
		"scan.loops_reoptimized_per_block": {reoptPerScan, "count"},
		"scan.loops_reused_per_block":      {ratio(reused, scans), "count"},
		"scan.reoptimized_frac":            {ratio(reopt, reopt+reused), "ratio"},
		"scan.shards_scanned_per_block":    {ratio(shards, scans), "count"},
		"scan.full_scans":                  {float64(fullScans), "count"},
		"scan.first_full_ms":               {quantile(sortedCopy(firstFull), 50), "ms"},
		"strategy.us_per_loop":             {ratio(meanMs(optNs, optN)*1000, reoptPerScan), "us"},
		"convex.warm_hit_frac":             {ratio(warmHit, warmHit+warmMiss), "ratio"},
		"convex.fallback_frac":             {ratio(fallback, solves), "ratio"},
		"convex.newton_iters_per_solve":    {ratio(newton, solves), "count"},
		"encode.ms_per_block":              {perBlock(t.self[4]), "ms"},
		"publish.ms_per_block":             {perBlock(t.self[5]), "ms"},
		"publish.frame_bytes":              {ratio(frameBytes, events), "bytes"},
		"wire.ms_per_block":                {perBlock(t.self[6]), "ms"},
		"wire.evictions":                   {evictions, "count"},
		"read.not_modified_frac":           {ratio(notMod, reads), "ratio"},
		"oplog.append_us":                  {ratio(appendNs/1e3, scans), "us"},
		"oplog.bytes_per_block":            {ratio(logBytes, logWritten), "bytes"},
		"oplog.dropped":                    {dropped, "count"},
		"unattributed.ms_per_block":        {perBlock(t.unattributed), "ms"},
		"block_to_wire_p99_ms":             {quantile(sAll, tail), "ms"},
		"block_to_wire_max_ms":             {quantile(sAll, 100), "ms"},
		"block_to_wire.tail_pct":           {tail, "%"},
		"trace.overhead_frac":              {ratio(p50t-p50u, p50u), "ratio"},
	}
	// The spans must account for every traced block's block-to-wire time.
	sum := perBlock(t.unattributed)
	for i := range critical {
		sum += perBlock(t.self[i])
	}
	if d := math.Abs(sum - perBlock(t.b2w)); d > 1e-6 {
		return nil, fmt.Errorf("spans account for %.6f ms of %.6f ms block-to-wire", sum, perBlock(t.b2w))
	}
	out["gen.late_ms_per_block"] = metric{perBlock(t.self[0]), "ms"}
	out["block_to_wire.traced_mean_ms"] = metric{perBlock(t.b2w), "ms"}
	return out, writeSpans(traceFile, t.spans)
}

// writeSpans writes the traced spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
