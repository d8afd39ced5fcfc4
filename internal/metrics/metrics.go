// Package metrics provides convergence detection and summary statistics for
// optimizer traces.
//
// The paper's convergence rule (Section 4.3): the algorithm has converged
// once the amplitude of the oscillations in total utility becomes less than
// 0.1% of the utility value. ConvergenceDetector implements that rule over
// a sliding window; Series collects and summarizes scalar time series.
package metrics

import (
	"math"
	"sort"
)

// DefaultWindow is the sliding-window length (iterations) over which
// oscillation amplitude is measured.
const DefaultWindow = 10

// DefaultRelAmplitude is the paper's 0.1% convergence threshold.
const DefaultRelAmplitude = 0.001

// ConvergenceDetector watches a scalar series (total utility per iteration)
// and reports the first iteration at which the oscillation amplitude over
// the trailing window drops below a relative threshold.
type ConvergenceDetector struct {
	window    int
	threshold float64

	values    []float64 // ring buffer of the last `window` observations
	next      int
	count     int
	iteration int
	converged bool
	at        int
}

// NewConvergenceDetector returns a detector using the given window length
// and relative amplitude threshold; zero values select DefaultWindow and
// DefaultRelAmplitude.
func NewConvergenceDetector(window int, relAmplitude float64) *ConvergenceDetector {
	if window <= 1 {
		window = DefaultWindow
	}
	if relAmplitude <= 0 {
		relAmplitude = DefaultRelAmplitude
	}
	return &ConvergenceDetector{
		window:    window,
		threshold: relAmplitude,
		values:    make([]float64, window),
		at:        -1,
	}
}

// Observe appends one observation and returns true if the detector is (or
// already was) converged. Iterations are numbered from 1 in the order
// observed.
func (d *ConvergenceDetector) Observe(v float64) bool {
	d.iteration++
	d.values[d.next] = v
	d.next = (d.next + 1) % d.window
	if d.count < d.window {
		d.count++
	}
	if d.converged {
		return true
	}
	if d.count < d.window {
		return false
	}
	lo, hi := d.values[0], d.values[0]
	for _, x := range d.values[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	mean := 0.0
	for _, x := range d.values {
		mean += x
	}
	mean /= float64(d.window)
	if mean != 0 && (hi-lo) <= d.threshold*math.Abs(mean) {
		d.converged = true
		d.at = d.iteration
	}
	return d.converged
}

// Converged reports whether the series has met the convergence rule.
func (d *ConvergenceDetector) Converged() bool { return d.converged }

// ConvergedAt returns the 1-based iteration at which convergence was first
// detected, or -1 if not converged. Note the detector needs a full window
// of observations, so the earliest possible answer is the window length.
func (d *ConvergenceDetector) ConvergedAt() int { return d.at }

// Rearm forgets the verdict and keeps the window: the series continues, and
// the next Observe judges its trailing window afresh. A detector following
// one long-running series rearms where a fresh one would be built, and so
// can converge on observations it already holds.
func (d *ConvergenceDetector) Rearm() {
	d.converged, d.at = false, -1
}

// Reset clears all state, e.g. after a workload change mid-run, so recovery
// time can be measured with the same rule.
func (d *ConvergenceDetector) Reset() {
	d.next, d.count, d.iteration = 0, 0, 0
	d.converged, d.at = false, -1
}

// Series is an append-only scalar time series with summary statistics.
type Series struct {
	vals []float64
}

// Append adds an observation.
func (s *Series) Append(v float64) { s.vals = append(s.vals, v) }

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.vals) }

// At returns the i-th observation (0-based).
func (s *Series) At(i int) float64 { return s.vals[i] }

// Values returns a copy of the observations.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Last returns the final observation, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.vals[len(s.vals)-1]
}

// Min returns the smallest observation, or 0 for an empty series.
func (s *Series) Min() float64 { return s.fold(math.Min, math.Inf(1)) }

// Max returns the largest observation, or 0 for an empty series.
func (s *Series) Max() float64 { return s.fold(math.Max, math.Inf(-1)) }

func (s *Series) fold(f func(a, b float64) float64, id float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	acc := id
	for _, v := range s.vals {
		acc = f(acc, v)
	}
	return acc
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Quantile returns the q-quantile (0<=q<=1) by nearest-rank on a sorted
// copy, or 0 for an empty series.
func (s *Series) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TailAmplitude returns (max-min)/|mean| over the trailing window
// observations, the quantity the convergence rule thresholds. It returns
// +Inf when fewer than window observations exist or the mean is zero.
func (s *Series) TailAmplitude(window int) float64 {
	if window <= 0 || len(s.vals) < window {
		return math.Inf(1)
	}
	tail := s.vals[len(s.vals)-window:]
	lo, hi, mean := tail[0], tail[0], 0.0
	for _, v := range tail {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		mean += v
	}
	mean /= float64(window)
	if mean == 0 {
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(mean)
}
