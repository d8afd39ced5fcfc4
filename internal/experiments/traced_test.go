package experiments

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// TestTracedRunRoundTrip is the trace acceptance check: the JSONL trace
// must decode back, and replaying its utility series through a fresh
// convergence detector must reproduce the run's ConvergedAt.
func TestTracedRunRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	res, err := TracedRun(Options{Iterations: 250}, tw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("base workload did not converge; trace replay check needs a converged run")
	}

	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Iterations {
		t.Fatalf("decoded %d records, ran %d iterations", len(recs), res.Iterations)
	}
	for i, r := range recs {
		if r.Iteration != i+1 {
			t.Fatalf("record %d has iter=%d", i, r.Iteration)
		}
		if r.Utility != res.Trace[i] {
			t.Fatalf("record %d utility %g != trace %g", i, r.Utility, res.Trace[i])
		}
		if len(r.Rates) == 0 || len(r.Consumers) == 0 || len(r.NodePrices) == 0 {
			t.Fatalf("record %d missing allocation/price vectors: %+v", i, r)
		}
		if r.StageNanos[0]+r.StageNanos[1]+r.StageNanos[2] < 0 {
			t.Fatalf("record %d negative stage time %v", i, r.StageNanos)
		}
	}
	// The first iteration admits the whole initial population, so churn
	// must be visible somewhere in the trace.
	if recs[0].AdmissionDelta == 0 {
		t.Error("first record has zero admission delta")
	}
	if !recs[len(recs)-1].Converged {
		t.Error("final record not marked converged")
	}

	// Replay: the recorded series drives a fresh detector to the same
	// convergence iteration.
	det := metrics.NewConvergenceDetector(0, 0)
	replayedAt := -1
	for _, r := range recs {
		if det.Observe(r.Utility) && replayedAt < 0 {
			replayedAt = det.ConvergedAt()
		}
	}
	if replayedAt != res.ConvergedAt {
		t.Errorf("replayed ConvergedAt = %d, run reported %d", replayedAt, res.ConvergedAt)
	}
}
