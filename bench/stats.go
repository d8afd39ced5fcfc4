package main

import (
	"math"
	"sort"
)

// series is a set of samples of one timing or count.
type series []float64

// sorted returns the samples in ascending order without touching s.
func (s series) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 <= q <= 1) by nearest rank, or 0 for
// an empty series.
func (s series) quantile(q float64) float64 {
	return quantileSorted(s.sorted(), q)
}

func (s series) median() float64 { return s.quantile(0.5) }

func (s series) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The small slack keeps a product like 0.9*100, which floats to just
	// above 90, on rank 90.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder lists the percentiles a timing may be reported at, in
// thousandths, highest first.
var tailLadder = []int{999, 990, 950, 900, 750}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, or 0.5 when none has: a p99 read off
// 300 samples is the third-largest value and says nothing.
func tailPercentile(n int) float64 {
	for _, pm := range tailLadder {
		if rank := (n*pm + 999) / 1000; n-rank >= 10 {
			return float64(pm) / 1000
		}
	}
	return 0.5
}

// spread is the distance between the first and third quartile of vs as a
// share of their median, by the method of Python's
// statistics.quantiles(vs, n=4) (exclusive); with fewer than four values it
// is the full range over the median, and with fewer than two it is unknown
// (NaN).
func spread(vs []float64) float64 {
	s := series(vs).sorted()
	n := len(s)
	if n < 2 {
		return math.NaN()
	}
	med := exclusiveQuantile(s, 0.5)
	if med == 0 {
		return math.NaN()
	}
	if n < 4 {
		return (s[n-1] - s[0]) / math.Abs(med)
	}
	return (exclusiveQuantile(s, 0.75) - exclusiveQuantile(s, 0.25)) / math.Abs(med)
}

// exclusiveQuantile interpolates at position q*(n+1) of the sorted values,
// clamped to the ends.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	j := int(pos)
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}
