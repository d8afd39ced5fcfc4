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

func TestConvergenceDetectorReset(t *testing.T) {
	d := NewConvergenceDetector(2, 0.01)
	d.Observe(100)
	d.Observe(100)
	if !d.Converged() {
		t.Fatal("setup failed")
	}
	d.Reset()
	if d.Converged() || d.ConvergedAt() != -1 {
		t.Error("Reset did not clear state")
	}
	d.Observe(7)
	if d.Converged() {
		t.Error("converged with a single post-reset observation")
	}
}

func TestConvergenceDetectorDefaults(t *testing.T) {
	d := NewConvergenceDetector(0, 0)
	if d.window != DefaultWindow || d.threshold != DefaultRelAmplitude {
		t.Errorf("defaults: window=%d threshold=%g", d.window, d.threshold)
	}
}

// TestConvergenceDetectorResetAfterMutation models the recovery
// experiment: a converged run, a workload mutation that moves the
// equilibrium, a Reset, and re-detection at the new level with iteration
// numbering restarted from 1.
func TestConvergenceDetectorResetAfterMutation(t *testing.T) {
	d := NewConvergenceDetector(3, 0.01)
	for i := 0; i < 5; i++ {
		d.Observe(100)
	}
	if !d.Converged() || d.ConvergedAt() != 3 {
		t.Fatalf("setup: converged=%v at %d", d.Converged(), d.ConvergedAt())
	}

	// The mutation perturbs the series; without Reset the detector would
	// stay latched converged (Observe returns true regardless).
	if !d.Observe(500) {
		t.Error("latched detector released by a post-convergence spike")
	}

	d.Reset()
	if d.Converged() || d.ConvergedAt() != -1 {
		t.Fatal("Reset did not clear the verdict")
	}
	// Recovery transient at the new equilibrium: the detector must not
	// fire on the residual window and must renumber iterations from 1.
	for i, v := range []float64{500, 350, 200, 200, 201} {
		converged := d.Observe(v)
		if i < 4 && converged {
			t.Fatalf("converged during transient at post-reset iteration %d", i+1)
		}
	}
	if !d.Converged() {
		t.Fatal("did not re-detect convergence at the new level")
	}
	if got := d.ConvergedAt(); got != 5 {
		t.Errorf("post-reset ConvergedAt = %d, want 5 (numbering restarts)", got)
	}
}
