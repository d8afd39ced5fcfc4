package experiments

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// quick returns options with small baseline budgets so the whole suite
// stays fast; the paper-scale budgets run from cmd/lrgp-experiments.
func quick() Options {
	return Options{Iterations: 250, SASteps: 100_000, SATemps: []float64{100, 4000}, Seed: 1}
}

func TestFigure1Damping(t *testing.T) {
	fig, err := Figure1Damping(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Names) != 3 || len(fig.X) != 250 {
		t.Fatalf("series=%d x=%d", len(fig.Names), len(fig.X))
	}

	// The paper's claim: gamma=1 oscillates with large amplitude; damped
	// runs stabilize. Compare tail amplitude over the last 50 iterations.
	amp := func(name string) float64 {
		ys := fig.Series[name]
		tail := ys[len(ys)-50:]
		lo, hi := tail[0], tail[0]
		for _, v := range tail {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return (hi - lo) / hi
	}
	if amp("gamma=1") <= amp("gamma=0.1") {
		t.Errorf("gamma=1 amplitude %g not above gamma=0.1 %g", amp("gamma=1"), amp("gamma=0.1"))
	}
	if amp("gamma=1") < 0.01 {
		t.Errorf("gamma=1 amplitude %g unexpectedly small", amp("gamma=1"))
	}
}

func TestFigure2AdaptiveGamma(t *testing.T) {
	fig, err := Figure2AdaptiveGamma(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive converges faster: at iteration 50 the adaptive run must be
	// closer to its final value than the slow fixed run is to its own.
	adaptive := fig.Series["adaptive gamma"]
	fixed := fig.Series["fixed gamma=0.01"]
	relDist := func(ys []float64, i int) float64 {
		final := ys[len(ys)-1]
		return math.Abs(ys[i]-final) / final
	}
	if relDist(adaptive, 49) >= relDist(fixed, 49) {
		t.Errorf("at iter 50: adaptive dist %g, fixed dist %g; expected adaptive closer",
			relDist(adaptive, 49), relDist(fixed, 49))
	}
}

func TestFigure3Recovery(t *testing.T) {
	res, err := Figure3Recovery(quick())
	if err != nil {
		t.Fatal(err)
	}
	adaptive := res.Fig.Series["adaptive gamma"]
	if len(adaptive) != 250 {
		t.Fatalf("series length %d", len(adaptive))
	}
	// Utility drops at the removal point (iteration 126 vs 125).
	if adaptive[125] >= adaptive[124] {
		t.Errorf("no utility drop at removal: %g -> %g", adaptive[124], adaptive[125])
	}
	// Adaptive recovers (re-converges) and at least as fast as fixed.
	aIters := res.RecoveryIters["adaptive gamma"]
	fIters := res.RecoveryIters["fixed gamma=0.01"]
	if aIters < 0 {
		t.Fatal("adaptive did not re-converge")
	}
	if fIters > 0 && aIters > fIters {
		t.Errorf("adaptive recovery %d slower than fixed %d", aIters, fIters)
	}
}

func TestFigure4PowerUtility(t *testing.T) {
	fig, err := Figure4PowerUtility(quick())
	if err != nil {
		t.Fatal(err)
	}
	ys := fig.Series["adaptive gamma"]
	final := ys[len(ys)-1]
	// Paper's LRGP utility for r^0.75 is 4,735,044; accept 2%.
	if rel := math.Abs(final-4735044) / 4735044; rel > 0.02 {
		t.Errorf("final utility %.0f, want within 2%% of 4,735,044", final)
	}
}

func TestTable2Scalability(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing sweep")
	}
	rows, err := Table2Scalability(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}

	// Paper Table 2 LRGP utilities, within 1%.
	want := []float64{1328821, 2657600, 5313612, 2656706, 5313412, 10626824}
	for i, r := range rows {
		if rel := math.Abs(r.LRGPUtility-want[i]) / want[i]; rel > 0.01 {
			t.Errorf("%s: LRGP %.0f, want within 1%% of %.0f", r.Workload, r.LRGPUtility, want[i])
		}
		if !r.LRGPConverged {
			t.Errorf("%s: LRGP did not converge", r.Workload)
		}
		// LRGP always beats the full-state SA baseline.
		if r.SAIncreases <= 0 {
			t.Errorf("%s: SA %.0f not below LRGP %.0f", r.Workload, r.SAUtility, r.LRGPUtility)
		}
		// The strong reference stays within 1% of LRGP (either side).
		if math.Abs(r.RGGap) > 1 {
			t.Errorf("%s: LRGP vs rates-greedy gap %.2f%% exceeds 1%%", r.Workload, r.RGGap)
		}
	}
	// The paper's qualitative scaling claim: SA degrades as the variable
	// count grows, so the utility increase for the largest workload
	// exceeds the base workload's.
	if rows[5].SAIncreases <= rows[0].SAIncreases {
		t.Errorf("SA gap did not grow with scale: base %.2f%%, 6f/24n %.2f%%",
			rows[0].SAIncreases, rows[5].SAIncreases)
	}
	// And LRGP utility scales linearly with consumer nodes.
	if rel := math.Abs(rows[5].LRGPUtility-8*rows[0].LRGPUtility) / (8 * rows[0].LRGPUtility); rel > 0.01 {
		t.Errorf("6f/24n utility %.0f not ~8x base %.0f", rows[5].LRGPUtility, rows[0].LRGPUtility)
	}
}

func TestTable3UtilityShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing sweep")
	}
	rows, err := Table3UtilityShapes(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := []float64{1328821, 926185, 2003225, 4735044}
	for i, r := range rows {
		if rel := math.Abs(r.LRGPUtility-want[i]) / want[i]; rel > 0.02 {
			t.Errorf("%s: LRGP %.0f, want within 2%% of %.0f", r.Workload, r.LRGPUtility, want[i])
		}
	}
	// Convergence slows as the exponent rises toward 1. Our adaptive-
	// gamma variant reproduces the trend between the shallow and steep
	// ends of the power family (the 0.5-vs-0.75 ordering is within
	// noise; see EXPERIMENTS.md).
	for _, steep := range []int{2, 3} {
		if rows[1].LRGPConvergedAt > rows[steep].LRGPConvergedAt {
			t.Errorf("r^0.25 converged at %d, slower than %s at %d",
				rows[1].LRGPConvergedAt, rows[steep].Workload, rows[steep].LRGPConvergedAt)
		}
	}
	for i, r := range rows {
		if !r.LRGPConverged {
			t.Errorf("row %d (%s) did not converge", i, r.Workload)
		}
	}
}

func TestRenderComparison(t *testing.T) {
	rows := []ComparisonRow{{
		Workload: "w", LRGPUtility: 10, LRGPIters: 5, LRGPConverged: true, LRGPConvergedAt: 4,
		SAUtility: 9, SATemp: 5, SASteps: 100, SARuntime: time.Millisecond, SAIncreases: 11.1,
		RGUtility: 10, RGGap: 0,
	}, {
		Workload: "w2", LRGPUtility: 10, LRGPIters: 5, // not converged
	}}
	var buf bytes.Buffer
	RenderComparison("t", rows).Render(&buf)
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("11.10%")) {
		t.Errorf("missing increase: %s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte(">5")) {
		t.Errorf("missing non-converged marker: %s", out)
	}
}

func TestAsyncExperiment(t *testing.T) {
	res, err := AsyncExperiment(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async did not converge in %d rounds; tail utility %.0f vs sync %.0f", res.Rounds, res.AsyncUtility, res.SyncUtility)
	}
	if res.RelativeError > 0.02 {
		t.Errorf("async error %.4f exceeds 2%%", res.RelativeError)
	}
}

func TestAblationAdmission(t *testing.T) {
	rows, err := AblationAdmission(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		byName[r.Policy] = r
	}
	lrgp := byName["lrgp"]
	if !lrgp.Feasible {
		t.Error("lrgp infeasible")
	}
	// Without admission control the base workload cannot fit: demand at
	// r^min already exceeds node capacity.
	admitAll := byName["admit-all @ rate-min"]
	if admitAll.Feasible || admitAll.MaxOverload <= 0 {
		t.Errorf("admit-all unexpectedly feasible: %+v", admitAll)
	}
	// Rate control contributes utility beyond greedy admission at fixed
	// rates.
	if lrgp.Utility <= byName["rate-min + greedy"].Utility {
		t.Errorf("lrgp %.0f not above rate-min greedy %.0f", lrgp.Utility, byName["rate-min + greedy"].Utility)
	}
	if lrgp.Utility <= byName["rate-max + greedy"].Utility {
		t.Errorf("lrgp %.0f not above rate-max greedy %.0f", lrgp.Utility, byName["rate-max + greedy"].Utility)
	}

	var buf bytes.Buffer
	RenderAblation(rows).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestLinkBottleneckExperiment(t *testing.T) {
	res, err := LinkBottleneckExperiment(quick(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLinkUsage > 1.05 {
		t.Errorf("max link utilization %.3f exceeds caps by >5%%", res.MaxLinkUsage)
	}
	// The default caps land inside the operating range, so at least one
	// link must genuinely bind.
	if res.MaxLinkUsage < 0.9 {
		t.Errorf("max link utilization %.3f: no link binds, experiment is vacuous", res.MaxLinkUsage)
	}
	// Bottlenecked system cannot beat the unconstrained one.
	if res.Utility > res.BaselineNoLink*1.001 {
		t.Errorf("link-capped utility %.0f above unconstrained %.0f", res.Utility, res.BaselineNoLink)
	}
	if res.Utility <= 0 {
		t.Errorf("utility = %g", res.Utility)
	}
}
