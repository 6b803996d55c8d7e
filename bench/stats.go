package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of vals (0 for none). It sorts a copy.
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks, like Python's statistics.quantiles with
// method="inclusive". It sorts a copy.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msQuantiles returns the median and the 95th and 99th percentiles of a
// latency sample, in milliseconds.
func msQuantiles(lat []time.Duration) (p50, p95, p99 float64) {
	vals := make([]float64, len(lat))
	for i, d := range lat {
		vals[i] = ms(d)
	}
	return quantile(vals, 0.5), quantile(vals, 0.95), quantile(vals, 0.99)
}
