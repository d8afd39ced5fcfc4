package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestNewEngineValidates(t *testing.T) {
	p := workload.Base()
	p.Flows[0].RateMin = 0
	if _, err := NewEngine(p, Config{}); err == nil {
		t.Error("NewEngine accepted an invalid problem")
	}
}

func TestEngineInitialState(t *testing.T) {
	p := workload.Base()
	e, err := NewEngine(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := e.Allocation()
	for i, r := range a.Rates {
		if r != p.Flows[i].RateMin {
			t.Errorf("initial rate[%d] = %g, want rateMin", i, r)
		}
	}
	for j, n := range a.Consumers {
		if n != 0 {
			t.Errorf("initial consumers[%d] = %d, want 0", j, n)
		}
	}
	for b, pr := range e.NodePrices() {
		if pr != 0 {
			t.Errorf("initial node price[%d] = %g, want 0", b, pr)
		}
	}
	if e.Utility() != 0 {
		t.Errorf("initial utility = %g, want 0", e.Utility())
	}
	if e.Iteration() != 0 {
		t.Errorf("initial iteration = %d, want 0", e.Iteration())
	}
}

func TestEngineReproducesPaperBaseUtility(t *testing.T) {
	// Paper Table 2, row 1: LRGP reaches 1,328,821 on the base workload.
	// Accept within 1%.
	e, err := NewEngine(workload.Base(), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(400)
	if !res.Converged {
		t.Fatalf("did not converge in 400 iterations")
	}
	const want = 1328821.0
	if rel := math.Abs(res.Utility-want) / want; rel > 0.01 {
		t.Errorf("utility = %.0f, want within 1%% of %.0f (rel %.4f)", res.Utility, want, rel)
	}
}

func TestEngineScalesLinearly(t *testing.T) {
	// Paper Section 4.3: utility grows linearly with consumer nodes.
	base, err := NewEngine(workload.Base(), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	u1 := base.Solve(400).Utility

	doubled, err := NewEngine(workload.Scaled(workload.Config{NodeSetCopies: 2}), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	u2 := doubled.Solve(400).Utility

	if rel := math.Abs(u2-2*u1) / (2 * u1); rel > 0.01 {
		t.Errorf("6f/6n utility = %.0f, want ~2x base %.0f", u2, u1)
	}
}

func TestEngineFeasibleAfterEveryStep(t *testing.T) {
	// Node capacity must never be violated by the greedy allocation (the
	// base workload's flow costs never exceed capacity, so the boundary
	// overload case cannot occur).
	p := workload.Base()
	e, err := NewEngine(p, Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	ix := e.Index()
	for t2 := 0; t2 < 100; t2++ {
		r := e.Step()
		if r.MaxNodeOverload > 0 {
			t.Fatalf("iteration %d: node overload %g", t2+1, r.MaxNodeOverload)
		}
		a := e.Allocation()
		if err := model.CheckFeasible(p, ix, a, 1e-6); err != nil {
			t.Fatalf("iteration %d: %v", t2+1, err)
		}
	}
}

func TestEnginePricesStayNonNegative(t *testing.T) {
	e, err := NewEngine(workload.WithLinkBottlenecks(workload.Base(), 0.3), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		e.Step()
		for b, pr := range e.NodePrices() {
			if pr < 0 {
				t.Fatalf("node %d price %g < 0", b, pr)
			}
		}
		for l, pr := range e.LinkPrices() {
			if pr < 0 {
				t.Fatalf("link %d price %g < 0", l, pr)
			}
		}
	}
}

func TestEngineDampingMatters(t *testing.T) {
	// Figure 1: gamma = 1 oscillates with large amplitude; gamma = 0.1
	// settles. Compare tail amplitudes.
	tail := func(gamma float64) float64 {
		e, err := NewEngine(workload.Base(), Config{Gamma: gamma})
		if err != nil {
			t.Fatal(err)
		}
		var vals []float64
		for i := 0; i < 250; i++ {
			vals = append(vals, e.Step().Utility)
		}
		lo, hi := vals[200], vals[200]
		for _, v := range vals[200:] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return (hi - lo) / hi
	}
	undamped := tail(1.0)
	damped := tail(0.1)
	if damped >= undamped {
		t.Errorf("damped amplitude %g not below undamped %g", damped, undamped)
	}
	if undamped < 0.01 {
		t.Errorf("undamped amplitude %g unexpectedly small", undamped)
	}
}

func TestEngineAdaptiveConvergesFasterThanSlowFixed(t *testing.T) {
	// Figure 2: adaptive gamma converges faster than a small fixed gamma.
	fixed, err := NewEngine(workload.Base(), Config{Gamma: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	fixedRes := fixed.Solve(600)

	adaptive, err := NewEngine(workload.Base(), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	adaptiveRes := adaptive.Solve(600)

	if !adaptiveRes.Converged {
		t.Fatal("adaptive did not converge")
	}
	if fixedRes.Converged && fixedRes.ConvergedAt <= adaptiveRes.ConvergedAt {
		t.Errorf("fixed gamma=0.01 converged at %d, adaptive at %d; expected adaptive faster",
			fixedRes.ConvergedAt, adaptiveRes.ConvergedAt)
	}
}

func TestEngineFlowRemovalRecovers(t *testing.T) {
	// Figure 3: removing flow 5 (highest-ranked consumers) drops utility,
	// then the system restabilizes at a lower level.
	e, err := NewEngine(workload.Base(), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Solve(250)
	if !before.Converged {
		t.Fatal("did not converge before removal")
	}

	e.SetFlowActive(5, false)
	if e.FlowActive(5) {
		t.Fatal("flow 5 still active")
	}
	after := e.Solve(250)
	if !after.Converged {
		t.Fatal("did not reconverge after removal")
	}
	if after.Utility >= before.Utility {
		t.Errorf("utility after removing flow 5 = %.0f, want below %.0f", after.Utility, before.Utility)
	}
	// Flow 5 classes (18, 19) must be empty; its rate zero.
	a := e.Allocation()
	if a.Rates[5] != 0 || a.Consumers[18] != 0 || a.Consumers[19] != 0 {
		t.Errorf("flow 5 leftovers: rate=%g n18=%d n19=%d", a.Rates[5], a.Consumers[18], a.Consumers[19])
	}
}

func TestEngineFlowReactivation(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Solve(250)
	removed := e.Allocation()
	e.SetFlowActive(5, false)
	e.Solve(250)
	e.SetFlowActive(5, true)
	restored := e.Solve(400)
	if !restored.Converged {
		t.Fatal("did not reconverge after reactivation")
	}
	// Utility returns to (approximately) the original level.
	u0 := model.TotalUtility(e.Problem(), removed)
	if rel := math.Abs(restored.Utility-u0) / u0; rel > 0.02 {
		t.Errorf("restored utility %.0f vs original %.0f (rel %.4f)", restored.Utility, u0, rel)
	}
}

func TestEngineSetFlowActiveIdempotent(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	a1 := e.Allocation()
	e.SetFlowActive(0, true) // already active: no-op
	a2 := e.Allocation()
	if a1.Rates[0] != a2.Rates[0] {
		t.Error("SetFlowActive(active) changed state")
	}
}

func TestEngineLinkBottleneckRespected(t *testing.T) {
	// With per-flow links at 30% of rateMax, converged rates must respect
	// link capacities (within the gradient method's tolerance).
	p := workload.WithLinkBottlenecks(workload.Base(), 0.3)
	e, err := NewEngine(p, Config{Adaptive: true, LinkGamma: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(2000)
	a := res.Allocation
	ix := e.Index()
	for _, l := range p.Links {
		used := model.LinkUsage(p, ix, a, l.ID)
		if used > l.Capacity*1.05 {
			t.Errorf("link %d usage %g exceeds capacity %g by >5%%", l.ID, used, l.Capacity)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e, err := NewEngine(workload.Base(), Config{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 60; i++ {
			out = append(out, e.Step().Utility)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d: %g != %g", i+1, a[i], b[i])
		}
	}
}

func TestEngineRandomWorkloadsStayFeasible(t *testing.T) {
	// Property test across random workloads: after every step the
	// allocation respects populations bounds, rate bounds, and node
	// capacities whenever flow costs fit.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := workload.Random(rng, workload.RandomConfig{
			Flows: 3 + rng.Intn(4), Nodes: 2 + rng.Intn(3),
		})
		e, err := NewEngine(p, Config{Adaptive: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ix := e.Index()
		for i := 0; i < 50; i++ {
			r := e.Step()
			if r.MaxNodeOverload > 0 {
				// Only legal when flow costs alone exceed a capacity.
				continue
			}
			if err := model.CheckFeasible(p, ix, e.Allocation(), 1e-6); err != nil {
				t.Fatalf("trial %d iter %d: %v", trial, i+1, err)
			}
		}
	}
}

func TestSolveStopsAtMaxIter(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(30)
	if res.Iterations > 30 {
		t.Errorf("iterations = %d, want <= 30", res.Iterations)
	}
	if len(res.Trace) != res.Iterations {
		t.Errorf("trace length %d != iterations %d", len(res.Trace), res.Iterations)
	}
}

func TestSolveDefaultMaxIter(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(0)
	if res.Iterations == 0 || res.Iterations > 250 {
		t.Errorf("iterations = %d, want in (0, 250]", res.Iterations)
	}
}

func TestStepResultIterationNumbers(t *testing.T) {
	e, err := NewEngine(workload.Base(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 5; want++ {
		if got := e.Step().Iteration; got != want {
			t.Errorf("Iteration = %d, want %d", got, want)
		}
	}
}
