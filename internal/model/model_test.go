package model

import (
	"errors"
	"testing"

	"repro/internal/utility"
)

// twoNodeProblem builds a small hand-checkable instance:
//
//	flow 0 (rates [1,100]) reaches nodes 0 and 1, one class at each;
//	flow 1 (rates [2,50]) reaches node 1 only, one class there;
//	one link 0->1 carrying both flows.
func twoNodeProblem() *Problem {
	return &Problem{
		Name: "test",
		Flows: []Flow{
			{ID: 0, Source: 0, RateMin: 1, RateMax: 100},
			{ID: 1, Source: 1, RateMin: 2, RateMax: 50},
		},
		Nodes: []Node{
			{ID: 0, Capacity: 1000, FlowCost: CostsOf(map[FlowID]float64{0: 2})},
			{ID: 1, Capacity: 2000, FlowCost: CostsOf(map[FlowID]float64{0: 3, 1: 4})},
		},
		Links: []Link{
			{ID: 0, From: 0, To: 1, Capacity: 500, FlowCost: CostsOf(map[FlowID]float64{0: 1, 1: 2})},
		},
		Classes: []Class{
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 10, CostPerConsumer: 5, Utility: utility.NewLog(10)},
			{ID: 1, Flow: 0, Node: 1, MaxConsumers: 20, CostPerConsumer: 6, Utility: utility.NewLog(20)},
			{ID: 2, Flow: 1, Node: 1, MaxConsumers: 30, CostPerConsumer: 7, Utility: utility.NewPower(5, 0.5)},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := Validate(twoNodeProblem()); err != nil {
		t.Fatalf("Validate(valid problem) = %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"no flows", func(p *Problem) { p.Flows = nil }},
		{"no nodes", func(p *Problem) { p.Nodes = nil }},
		{"no classes", func(p *Problem) { p.Classes = nil }},
		{"flow id mismatch", func(p *Problem) { p.Flows[1].ID = 7 }},
		{"flow source out of range", func(p *Problem) { p.Flows[0].Source = 9 }},
		{"zero rate min", func(p *Problem) { p.Flows[0].RateMin = 0 }},
		{"rate min above max", func(p *Problem) { p.Flows[0].RateMin = 200 }},
		{"class id mismatch", func(p *Problem) { p.Classes[2].ID = 0 }},
		{"class flow out of range", func(p *Problem) { p.Classes[0].Flow = 5 }},
		{"class node out of range", func(p *Problem) { p.Classes[0].Node = 5 }},
		{"negative max consumers", func(p *Problem) { p.Classes[0].MaxConsumers = -1 }},
		{"zero consumer cost", func(p *Problem) { p.Classes[0].CostPerConsumer = 0 }},
		{"nil utility", func(p *Problem) { p.Classes[0].Utility = nil }},
		{"class where flow absent", func(p *Problem) { p.Classes[2].Node = 0 }},
		{"node id mismatch", func(p *Problem) { p.Nodes[1].ID = 0 }},
		{"zero node capacity", func(p *Problem) { p.Nodes[0].Capacity = 0 }},
		{"node cost unknown flow", func(p *Problem) { p.Nodes[0].FlowCost = p.Nodes[0].FlowCost.With(9, 1) }},
		{"node cost non-positive", func(p *Problem) { p.Nodes[0].FlowCost = p.Nodes[0].FlowCost.With(0, 0) }},
		{"link id mismatch", func(p *Problem) { p.Links[0].ID = 3 }},
		{"link endpoint out of range", func(p *Problem) { p.Links[0].To = 9 }},
		{"link self loop", func(p *Problem) { p.Links[0].To = p.Links[0].From }},
		{"zero link capacity", func(p *Problem) { p.Links[0].Capacity = 0 }},
		{"link cost unknown flow", func(p *Problem) { p.Links[0].FlowCost = p.Links[0].FlowCost.With(9, 1) }},
		{"link cost non-positive", func(p *Problem) { p.Links[0].FlowCost = p.Links[0].FlowCost.With(0, -1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := twoNodeProblem()
			tt.mutate(p)
			if err := Validate(p); !errors.Is(err, ErrInvalid) {
				t.Errorf("Validate() = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestIndexLookups(t *testing.T) {
	p := twoNodeProblem()
	ix := NewIndex(p)

	if got := ix.ClassesByFlow(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ClassesByFlow(0) = %v", got)
	}
	if got := ix.ClassesByFlow(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("ClassesByFlow(1) = %v", got)
	}
	if got := ix.ClassesByNode(1); len(got) != 2 {
		t.Errorf("ClassesByNode(1) = %v", got)
	}
	if got := ix.FlowsByNode(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("FlowsByNode(0) = %v", got)
	}
	if got := ix.FlowsByNode(1); len(got) != 2 {
		t.Errorf("FlowsByNode(1) = %v", got)
	}
	if got := ix.FlowsByLink(0); len(got) != 2 {
		t.Errorf("FlowsByLink(0) = %v", got)
	}
	if got := ix.NodesByFlow(0); len(got) != 2 {
		t.Errorf("NodesByFlow(0) = %v", got)
	}
	if got := ix.LinksByFlow(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("LinksByFlow(1) = %v", got)
	}
	if ix.Problem() != p {
		t.Error("Index.Problem() mismatch")
	}
}

func TestTotalUtility(t *testing.T) {
	p := twoNodeProblem()
	a := NewAllocation(p)
	if got := TotalUtility(p, a); got != 0 {
		t.Errorf("utility with no consumers = %g, want 0", got)
	}
	a.Rates = []float64{10, 25}
	a.Consumers = []int{2, 0, 3}
	want := 2*p.Classes[0].Utility.Value(10) + 3*p.Classes[2].Utility.Value(25)
	if got := TotalUtility(p, a); got != want {
		t.Errorf("TotalUtility = %g, want %g", got, want)
	}
}

func TestUsageAndFeasibility(t *testing.T) {
	p := twoNodeProblem()
	ix := NewIndex(p)
	a := Allocation{Rates: []float64{10, 20}, Consumers: []int{1, 2, 3}}

	// Node 0: F=2*10 + class0: 5*1*10 = 70.
	if got := NodeUsage(p, ix, a, 0); got != 70 {
		t.Errorf("NodeUsage(0) = %g, want 70", got)
	}
	// Node 1: 3*10 + 4*20 + 6*2*10 + 7*3*20 = 30+80+120+420 = 650.
	if got := NodeUsage(p, ix, a, 1); got != 650 {
		t.Errorf("NodeUsage(1) = %g, want 650", got)
	}
	if got := NodeFlowUsage(p, ix, a, 1); got != 110 {
		t.Errorf("NodeFlowUsage(1) = %g, want 110", got)
	}
	// Link 0: 1*10 + 2*20 = 50.
	if got := LinkUsage(p, ix, a, 0); got != 50 {
		t.Errorf("LinkUsage(0) = %g, want 50", got)
	}
	if err := CheckFeasible(p, ix, a, 0); err != nil {
		t.Errorf("CheckFeasible = %v, want nil", err)
	}
}

func TestCheckFeasibleViolations(t *testing.T) {
	p := twoNodeProblem()
	ix := NewIndex(p)
	base := Allocation{Rates: []float64{10, 20}, Consumers: []int{1, 2, 3}}

	tests := []struct {
		name   string
		mutate func(*Allocation)
	}{
		{"wrong shape", func(a *Allocation) { a.Rates = a.Rates[:1] }},
		{"rate below min", func(a *Allocation) { a.Rates[0] = 0.5 }},
		{"rate above max", func(a *Allocation) { a.Rates[1] = 51 }},
		{"negative population", func(a *Allocation) { a.Consumers[0] = -1 }},
		{"population above max", func(a *Allocation) { a.Consumers[0] = 11 }},
		{"link overload", func(a *Allocation) { a.Rates = []float64{100, 50} }},
		{"node overload", func(a *Allocation) { a.Consumers[2] = 30; a.Rates[1] = 50 }},
		{"delivery below floor", func(a *Allocation) { a.Delivery = []float64{0.5, 10, 20} }},
		{"delivery above source", func(a *Allocation) { a.Delivery = []float64{10, 15, 20} }},
		{"delivery length", func(a *Allocation) { a.Delivery = []float64{10, 10} }},
		{"node overload at delivery rates", func(a *Allocation) {
			a.Rates[1] = 50
			a.Consumers[2] = 30
			a.Delivery = []float64{10, 10, 50}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := base.Clone()
			tt.mutate(&a)
			if err := CheckFeasible(p, ix, a, 0); !errors.Is(err, ErrInfeasible) {
				t.Errorf("CheckFeasible = %v, want ErrInfeasible", err)
			}
		})
	}
}

func TestCheckFeasibleTolerance(t *testing.T) {
	p := twoNodeProblem()
	ix := NewIndex(p)
	a := Allocation{Rates: []float64{100.0000001, 2}, Consumers: []int{0, 0, 0}}
	if err := CheckFeasible(p, ix, a, 1e-6); err != nil {
		t.Errorf("CheckFeasible with tolerance = %v, want nil", err)
	}
	if err := CheckFeasible(p, ix, a, 0); err == nil {
		t.Error("CheckFeasible without tolerance accepted violation")
	}
}

func TestNewAllocation(t *testing.T) {
	p := twoNodeProblem()
	a := NewAllocation(p)
	if a.Rates[0] != 1 || a.Rates[1] != 2 {
		t.Errorf("rates = %v, want rate minimums", a.Rates)
	}
	for j, n := range a.Consumers {
		if n != 0 {
			t.Errorf("consumers[%d] = %d, want 0", j, n)
		}
	}
}

func TestAllocationClone(t *testing.T) {
	a := Allocation{Rates: []float64{1, 2}, Consumers: []int{3, 4}, Delivery: []float64{1, 1.5}}
	b := a.Clone()
	b.Rates[0] = 99
	b.Consumers[0] = 99
	b.Delivery[0] = 99
	if a.Rates[0] != 1 || a.Consumers[0] != 3 || a.Delivery[0] != 1 {
		t.Error("Clone aliases underlying arrays")
	}
	if c := (Allocation{Rates: a.Rates, Consumers: a.Consumers}).Clone(); c.Delivery != nil {
		t.Errorf("Clone of a single-rate allocation has Delivery %v, want nil", c.Delivery)
	}
}

// TestDeliveryRates evaluates a multirate allocation by hand: the class
// terms of the objective and of the node constraint read d_j, while links
// and flow-node costs read r_i, so thinning one class makes a node that
// overflows at the source rate fit.
func TestDeliveryRates(t *testing.T) {
	p := twoNodeProblem()
	ix := NewIndex(p)
	a := Allocation{Rates: []float64{100, 20}, Consumers: []int{1, 20, 3}}
	// Node 1 at the source rates: 3*100 + 4*20 + 6*20*100 + 7*3*20.
	if got := NodeUsage(p, ix, a, 1); got != 12800 {
		t.Fatalf("single-rate NodeUsage(1) = %g, want 12800", got)
	}
	if err := CheckFeasible(p, ix, a, 0); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("single-rate CheckFeasible = %v, want ErrInfeasible", err)
	}

	a.Delivery = []float64{100, 1, 20}
	// Node 1: 3*100 + 4*20 + 6*20*1 + 7*3*20 = 300+80+120+420.
	if got := NodeUsage(p, ix, a, 1); got != 920 {
		t.Errorf("NodeUsage(1) = %g, want 920", got)
	}
	// Node 0: 2*100 + 5*1*100.
	if got := NodeUsage(p, ix, a, 0); got != 700 {
		t.Errorf("NodeUsage(0) = %g, want 700", got)
	}
	// Link 0 carries the source rates: 1*100 + 2*20.
	if got := LinkUsage(p, ix, a, 0); got != 140 {
		t.Errorf("LinkUsage(0) = %g, want 140", got)
	}
	want := 1*p.Classes[0].Utility.Value(100) + 20*p.Classes[1].Utility.Value(1) + 3*p.Classes[2].Utility.Value(20)
	if got := TotalUtility(p, a); got != want {
		t.Errorf("TotalUtility = %g, want %g", got, want)
	}
	if err := CheckFeasible(p, ix, a, 0); err != nil {
		t.Errorf("CheckFeasible = %v, want nil", err)
	}
}

func TestProblemClone(t *testing.T) {
	p := twoNodeProblem()
	q := p.Clone()
	q.Nodes[0].FlowCost = q.Nodes[0].FlowCost.With(0, 99)
	q.Links[0].FlowCost = q.Links[0].FlowCost.With(0, 99)
	q.Flows[0].RateMax = 7
	nodeCost, _ := p.Nodes[0].FlowCost.Get(0)
	linkCost, _ := p.Links[0].FlowCost.Get(0)
	if nodeCost == 99 || linkCost == 99 || p.Flows[0].RateMax == 7 {
		t.Error("Clone aliases underlying records or slices")
	}
	if err := Validate(q); err != nil {
		t.Errorf("clone does not validate: %v", err)
	}
}
