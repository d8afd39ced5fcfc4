package multirate

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
	"repro/internal/workload"
)

// heteroProblem: one flow, one node, two classes with very different rate
// appetites — the case multirate dissemination is for. The high-rank
// class wants a fast stream; the numerous low-rank class is nearly
// indifferent above a low rate.
func heteroProblem() *model.Problem {
	return &model.Problem{
		Name: "hetero",
		Flows: []model.Flow{
			{ID: 0, Source: 0, RateMin: 10, RateMax: 1000},
		},
		Nodes: []model.Node{
			{ID: 0, Capacity: 1_000_000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			{ID: 0, Name: "fast", Flow: 0, Node: 0, MaxConsumers: 20,
				CostPerConsumer: 19, Utility: utility.NewPower(100, 0.5)},
			{ID: 1, Name: "slow", Flow: 0, Node: 0, MaxConsumers: 10000,
				CostPerConsumer: 19, Utility: utility.NewLog(4)},
		},
	}
}

func TestNewEngineValidates(t *testing.T) {
	p := heteroProblem()
	p.Classes[0].Utility = nil
	if _, err := NewEngine(p, core.Config{}); err == nil {
		t.Error("accepted invalid problem")
	}
}

// TestNewEngineRefusesBadStepsizes: a NaN, infinite or negative Gamma or
// LinkGamma is refused with model.ErrInvalid, by the rule core.NewEngine
// applies, instead of being carried (NaN, +Inf) or silently replaced by
// the default (negative); 0 still means the default.
func TestNewEngineRefusesBadStepsizes(t *testing.T) {
	p := workload.Base()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for name, cfg := range map[string]core.Config{"Gamma": {Gamma: v}, "LinkGamma": {LinkGamma: v}} {
			if _, err := NewEngine(p, cfg); !errors.Is(err, model.ErrInvalid) {
				t.Errorf("%s %g: NewEngine = %v, want model.ErrInvalid", name, v, err)
			}
		}
	}
	e, err := NewEngine(p, core.Config{Gamma: 0, LinkGamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Gamma != core.DefaultGamma || e.cfg.LinkGamma != core.DefaultLinkGamma {
		t.Errorf("zero stepsizes became %g and %g, want the defaults", e.cfg.Gamma, e.cfg.LinkGamma)
	}
}

func TestSolveFeasibleAndConverges(t *testing.T) {
	p := heteroProblem()
	e, err := NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(600)
	if !res.Converged {
		t.Fatalf("did not converge; trace tail %v", res.Trace[len(res.Trace)-5:])
	}
	ix := model.NewIndex(p)
	if err := model.CheckFeasible(p, ix, res.Allocation, 1e-6); err != nil {
		t.Errorf("infeasible: %v", err)
	}
	if got := model.TotalUtility(p, res.Allocation); math.Abs(got-res.Utility) > 1e-6*(1+res.Utility) {
		t.Errorf("utility mismatch: %g vs %g", res.Utility, got)
	}
}

func TestDeliveryNeverExceedsSourceRate(t *testing.T) {
	p := heteroProblem()
	e, err := NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.Step()
		a := e.Allocation()
		for j, c := range p.Classes {
			if a.Delivery[j] > a.Rates[c.Flow]+1e-12 {
				t.Fatalf("iter %d: delivery[%d]=%g above source %g",
					i+1, j, a.Delivery[j], a.Rates[c.Flow])
			}
			if a.Delivery[j] < p.Flows[c.Flow].RateMin-1e-12 {
				t.Fatalf("iter %d: delivery[%d]=%g below rate floor", i+1, j, a.Delivery[j])
			}
		}
	}
}

func TestMultirateDominatesSingleRateOnHeterogeneousClasses(t *testing.T) {
	p := heteroProblem()

	single, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	sres := single.Solve(600)

	multi, err := NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	mres := multi.Solve(600)

	// The multirate feasible set strictly contains the single-rate one;
	// on this workload the split (full-rate stream for the small
	// high-rank class, thin stream for the crowd) pays off massively
	// (+47% measured; assert a conservative +20%).
	if mres.Utility <= sres.Utility*1.20 {
		t.Errorf("multirate %.0f not >20%% above single-rate %.0f", mres.Utility, sres.Utility)
	}
	// And the rates must actually split.
	a := mres.Allocation
	if !(a.Delivery[0] > a.Delivery[1]) {
		t.Errorf("deliveries did not split: fast=%g slow=%g", a.Delivery[0], a.Delivery[1])
	}
}

func TestMultirateMatchesSingleRateOnHomogeneousClasses(t *testing.T) {
	// When every class of a flow shares one utility, thinning buys
	// nothing: multirate should land within 2% of single-rate LRGP (it
	// cannot be meaningfully worse, and it cannot exploit heterogeneity
	// that does not exist).
	p := workload.Base()

	single, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	sres := single.Solve(600)

	multi, err := NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	mres := multi.Solve(600)

	if mres.Utility < sres.Utility*0.98 {
		t.Errorf("multirate %.0f below 98%% of single-rate %.0f on homogeneous workload",
			mres.Utility, sres.Utility)
	}
}

func TestMultirateOnBaseWorkloadFeasible(t *testing.T) {
	p := workload.Base()
	e, err := NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(600)
	ix := model.NewIndex(p)
	if err := model.CheckFeasible(p, ix, res.Allocation, 1e-6); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestDesiredDelivery(t *testing.T) {
	u := utility.NewLog(20) // U'(d) = 20/(1+d)
	// price 0 -> max.
	if got := desiredDelivery(u, 0, 10, 1000); got != 1000 {
		t.Errorf("zero price: %g", got)
	}
	// Very high price -> floor.
	if got := desiredDelivery(u, 100, 10, 1000); got != 10 {
		t.Errorf("high price: %g", got)
	}
	// Interior: U'(d) = 0.5 => d = 39.
	if got := desiredDelivery(u, 0.5, 10, 1000); math.Abs(got-39) > 1e-9 {
		t.Errorf("interior: %g, want 39", got)
	}
	// Non-inverter falls back to bisection.
	f := fakeConcave{}
	got := desiredDelivery(f, f.Deriv(50), 10, 1000)
	if math.Abs(got-50) > 1e-6 {
		t.Errorf("bisection path: %g, want 50", got)
	}
}

// fakeConcave is a concave utility without InvDeriv.
type fakeConcave struct{}

func (fakeConcave) Value(r float64) float64 { return math.Sqrt(r) }
func (fakeConcave) Deriv(r float64) float64 { return 0.5 / math.Sqrt(r) }
func (fakeConcave) Name() string            { return "sqrt" }

func TestDesiredDeliveryExported(t *testing.T) {
	u := workload.ShapeLog.Utility(20) // 20*log(1+r), U'(r) = 20/(1+r)
	// U'(d) = 0.5 => d = 39.
	if got := DesiredDelivery(u, 0.5, 10, 1000); got != 39 {
		t.Errorf("DesiredDelivery = %g, want 39", got)
	}
}
