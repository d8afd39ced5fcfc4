// Package metrics provides convergence detection for optimizer traces.
//
// The paper's convergence rule (Section 4.3): the algorithm has converged
// once the amplitude of the oscillations in total utility becomes less than
// 0.1% of the utility value. ConvergenceDetector implements that rule over
// a sliding window.
package metrics

import "math"

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
