package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// blockView is one sealed block matched to the report that covered it.
type blockView struct {
	b       blockRec
	ev      *eventRec // nil: never covered
	b2w     int64     // ns, covered blocks only
	profit  float64
	ownScan bool // covered by the report of its own height
}

// view matches a market's blocks to their covering reports.
func (m *marketRun) view() []blockView {
	blocks := append([]blockRec(nil), m.rec.blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].height < blocks[j].height })
	bh := make([]int64, len(blocks))
	for i, b := range blocks {
		bh[i] = b.height
	}
	eh := make([]int64, len(m.rec.events))
	for i, e := range m.rec.events {
		eh[i] = e.height
	}
	profit := make(map[uint64]float64, len(m.rec.scans))
	for _, s := range m.rec.scans {
		profit[s.version] = s.profit
	}
	out := make([]blockView, len(blocks))
	for i, c := range cover(bh, eh) {
		out[i].b = blocks[i]
		if c < 0 {
			continue
		}
		ev := &m.rec.events[c]
		out[i].ev = ev
		out[i].b2w = ev.read - blocks[i].t0
		out[i].profit = profit[ev.version]
		out[i].ownScan = ev.height == blocks[i].height
	}
	return out
}

// scannedEveryRun reports whether block height h is one every run of
// the workload scans: all blocks in the open loop (its count is fixed by
// the schedule), the first fixedBlocks in a closed loop.
func (w *workload) scannedEveryRun(h int64) bool {
	return w.openLoop() || h <= int64(w.fixedBlocks)
}

// minCalmBlocks is how many covered blocks the calm quarter of a run's
// markets must hold: enough for a p90 with tailSamples beyond it.
const minCalmBlocks = 100

// sample is what one market's measured phase contributes to the timing
// metrics.
type sample struct {
	b2w, reads      []float64
	blocks          int
	cpu, wall, busy int64
	// stolen and used are machine-wide CPU jiffies the hypervisor
	// withheld and the guest used during the measured phase.
	stolen, used float64
}

func (s *sample) merge(o sample) {
	s.b2w = append(s.b2w, o.b2w...)
	s.reads = append(s.reads, o.reads...)
	s.blocks += o.blocks
	s.cpu += o.cpu
	s.wall += o.wall
	s.busy += o.busy
}

// stealShare is the share of the CPU time the machine asked for that
// its hypervisor withheld (0 when unknown).
func stealShare(stolen, used float64) float64 { return ratio(stolen, stolen+used) }

// calmer returns the indices of the quarter (rounded up) of the items
// with the lowest steal shares; ties keep their order.
func calmer(shares []float64) []int {
	idx := make([]int, len(shares))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
	return idx[:(len(idx)+3)/4]
}

// endToEnd computes the user-visible metrics over every market of a run,
// plus the attempted and failed operation counts and the digest of the
// served reports every run of the workload scans (a hash over the
// markets' digests, in order).
//
// The timing metrics pool the calmest quarter of the run's markets: the
// ones during which the machine's hypervisor withheld the smallest share
// of the CPU time the machine asked for. On a shared box that share
// swings between a few percent and over a third within seconds, and
// wall-clock figures swing with it; the stamp records the run's overall
// steal.
func endToEnd(w *workload, runs []*marketRun) (map[string]metric, int, int, string, error) {
	var (
		samples              []sample
		blocks, uncovered    int
		within               int
		profitSum            float64
		profitN              int
		readFails, scanFails int
		reads                int
		evictions, mallocs   uint64
		setups, setupShares  []float64
	)
	h := sha256.New()
	for _, m := range runs {
		setups = append(setups, m.setup.Seconds())
		setupShares = append(setupShares, stealShare(cpuDelta(m.setupStat0, m.cpuStat0)))
		mallocs += m.mallocs
		evictions += m.after.evicted - m.before.evicted
		s := sample{cpu: int64(m.cpu), wall: m.end - m.start}
		s.stolen, s.used = cpuDelta(m.cpuStat0, m.cpuStat1)
		var busy []interval
		for _, v := range m.view() {
			blocks++
			s.blocks++
			if v.ev == nil {
				uncovered++
				continue
			}
			s.b2w = append(s.b2w, ms(v.b2w))
			if v.b2w <= int64(w.budget) {
				within++
			}
			if w.scannedEveryRun(v.b.height) {
				profitSum += v.profit
				profitN++
			}
			busy = append(busy, interval{v.b.seal, v.ev.read})
		}
		s.busy = covered(interval{m.start, m.end}, busy)
		for _, sc := range m.rec.scans {
			if sc.failed {
				scanFails++
			}
		}
		for _, r := range m.rec.reads {
			reads++
			if r.failed {
				readFails++
				continue
			}
			s.reads = append(s.reads, ms(r.done-r.due))
		}
		h.Write(m.digest)
		samples = append(samples, s)
	}

	shares := make([]float64, len(samples))
	for i, s := range samples {
		shares[i] = stealShare(s.stolen, s.used)
	}
	var calm sample
	for _, i := range calmer(shares) {
		calm.merge(samples[i])
	}
	if n := len(calm.b2w); n < minCalmBlocks {
		return nil, 0, 0, "", fmt.Errorf("%d covered blocks in the calm quarter of the markets: too few for a p90 with %d samples beyond it", n, tailSamples)
	}
	if len(calm.reads) == 0 {
		return nil, 0, 0, "", fmt.Errorf("no successful /v1/report reads")
	}
	b2w, rd := sortedCopy(calm.b2w), sortedCopy(calm.reads)
	perSecond := float64(calm.blocks) / (float64(calm.wall) / 1e9)
	if w.openLoop() {
		// The offered rate fixes blocks per wall second; what the stack
		// sustains is blocks per second it was busy with one.
		perSecond = float64(calm.blocks) / (float64(calm.busy) / 1e9)
	}
	out := map[string]metric{
		"block_to_wire_p50_ms":      {quantile(b2w, 50), "ms"},
		"block_to_wire_p90_ms":      {quantile(b2w, 90), "ms"},
		"blocks_within_budget_frac": {float64(within) / float64(blocks), "ratio"},
		"blocks_per_s":              {perSecond, "1/s"},
		"cpu_ms_per_block":          {ms(calm.cpu) / float64(calm.blocks), "ms"},
		"report_read_p50_ms":        {quantile(rd, 50), "ms"},
		"allocs_per_block":          {float64(mallocs) / float64(blocks), "count"},
		"peak_rss_mb":               {peakRSSMiB(), "MiB"},
		"setup_s":                   {calmMedian(setups, setupShares), "s"},
		"profit_usd_per_block":      {ratio(profitSum, float64(profitN)), "USD"},
	}
	failed := uncovered + scanFails + readFails + int(evictions)
	return out, blocks + reads, failed, hex.EncodeToString(h.Sum(nil)), nil
}

// calmMedian returns the median of xs over the calmest quarter by
// steal share.
func calmMedian(xs, shares []float64) float64 {
	var kept []float64
	for _, i := range calmer(shares) {
		kept = append(kept, xs[i])
	}
	return quantile(sortedCopy(kept), 50)
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
