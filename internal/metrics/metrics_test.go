package metrics

import "testing"

func TestConvergenceDetectorFlatSeries(t *testing.T) {
	d := NewConvergenceDetector(5, 0.001)
	for i := 0; i < 4; i++ {
		if d.Observe(100) {
			t.Fatalf("converged before a full window at observation %d", i+1)
		}
	}
	if !d.Observe(100) {
		t.Fatal("flat series did not converge at window fill")
	}
	if got := d.ConvergedAt(); got != 5 {
		t.Errorf("ConvergedAt = %d, want 5", got)
	}
}

func TestConvergenceDetectorOscillation(t *testing.T) {
	d := NewConvergenceDetector(4, 0.001)
	// +-1% oscillation around 100 never converges at a 0.1% threshold.
	vals := []float64{99, 101, 99, 101, 99, 101, 99, 101}
	for _, v := range vals {
		if d.Observe(v) {
			t.Fatal("oscillating series converged")
		}
	}
	if d.Converged() || d.ConvergedAt() != -1 {
		t.Errorf("Converged=%v ConvergedAt=%d, want false/-1", d.Converged(), d.ConvergedAt())
	}
}

func TestConvergenceDetectorSettles(t *testing.T) {
	d := NewConvergenceDetector(3, 0.01)
	series := []float64{10, 50, 90, 100, 100.1, 100.2, 100.1}
	var convergedAt int
	for _, v := range series {
		if d.Observe(v) && convergedAt == 0 {
			convergedAt = d.ConvergedAt()
		}
	}
	if convergedAt != 6 {
		t.Errorf("ConvergedAt = %d, want 6 (first window within 1%%)", convergedAt)
	}
}

func TestConvergenceDetectorStaysConverged(t *testing.T) {
	d := NewConvergenceDetector(2, 0.01)
	d.Observe(100)
	if !d.Observe(100) {
		t.Fatal("did not converge")
	}
	// A later spike does not un-converge (first detection is what the
	// paper reports).
	if !d.Observe(500) {
		t.Error("detector lost converged state")
	}
	if got := d.ConvergedAt(); got != 2 {
		t.Errorf("ConvergedAt = %d, want 2", got)
	}
}

func TestConvergenceDetectorDefaults(t *testing.T) {
	d := NewConvergenceDetector(0, 0)
	if d.window != DefaultWindow || d.threshold != DefaultRelAmplitude {
		t.Errorf("defaults: window=%d threshold=%g", d.window, d.threshold)
	}
}
