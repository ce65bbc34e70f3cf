package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile: with fewer, one outlier decides the number.
const tailSamples = 10

// tailPercentile returns the highest percentile that has at least
// tailSamples of n samples beyond it under the nearest-rank rule, or 0
// when n is too small for any (n ≤ tailSamples).
func tailPercentile(n int) float64 {
	if n <= tailSamples {
		return 0
	}
	return 100 * float64(n-tailSamples) / float64(n)
}

// quantile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest value with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0, so no metric is NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cover matches each sealed block to the report that first made it
// visible: the first report, in arrival order, whose height is at least
// the block's. blocks holds block heights in sealing order; reports holds
// report heights in arrival order (non-decreasing, since feed versions
// only grow). The result holds one report index per block, or -1 when no
// report covers it. When blocks coalesce, several blocks map to the same
// later report.
func cover(blocks, reports []int64) []int {
	out := make([]int, len(blocks))
	r := 0
	for i, h := range blocks {
		for r < len(reports) && reports[r] < h {
			r++
		}
		if r == len(reports) {
			out[i] = -1
			continue
		}
		out[i] = r
	}
	return out
}

// interval is a closed-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// covered returns the length of the union of ivs clipped to within.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it that its children
// cover; overlapping children count once.
func selfTime(span interval, children []interval) int64 {
	return span.end - span.start - covered(span, children)
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
