package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles is the fixed ladder the tail rule picks from. A fixed
// ladder keeps the reported percentile comparable between runs whose
// series counts differ a little.
var tailPercentiles = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// series is a set of latencies in milliseconds.
type series []float64

// addDur appends a duration in milliseconds.
func (s *series) addDur(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// percentile returns the nearest-rank p-th percentile, or NaN when
// empty. The receiver must be sorted ascending.
func (s series) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := nearestRank(p, len(s)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The small slack keeps p/100*n from rounding up past an exact rank.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailRank returns the highest ladder percentile with at least
// minBeyond of n samples strictly beyond its nearest rank, or 0 when n
// is too small for even the median.
func tailRank(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// summary is the median, tail and maximum of one latency series.
type summary struct {
	n                  int
	p50, tail, tailPct float64
	max                float64
}

// summarize sorts s in place and reports its median and tail. With too
// few samples for the tail rule the tail is the maximum, reported as
// the 100th percentile.
func summarize(s series) summary {
	sort.Float64s(s)
	out := summary{n: len(s), p50: s.percentile(50), tailPct: tailRank(len(s))}
	if out.tailPct == 0 {
		out.tailPct = 100
	}
	out.tail = s.percentile(out.tailPct)
	if len(s) > 0 {
		out.max = s[len(s)-1]
	}
	return out
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append(series(nil), xs...)
	sort.Float64s(c)
	return c.percentile(50)
}
