package multirate

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// feasibleAllocation puts every flow and class at its rate floor with no
// consumers: a multirate allocation that fits any problem.
func feasibleAllocation(p *model.Problem) model.Allocation {
	a := model.NewAllocation(p)
	a.Delivery = make([]float64, len(p.Classes))
	for j, c := range p.Classes {
		a.Delivery[j] = p.Flows[c.Flow].RateMin
	}
	return a
}

func TestCheckFeasibleViolations(t *testing.T) {
	p := workload.Heterogeneous()
	ix := model.NewIndex(p)

	if err := model.CheckFeasible(p, ix, feasibleAllocation(p), 0); err != nil {
		t.Fatalf("baseline allocation infeasible: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(a *model.Allocation)
	}{
		{"source below min", func(a *model.Allocation) { a.Rates[0] = 1 }},
		{"source above max", func(a *model.Allocation) { a.Rates[0] = 2000 }},
		{"delivery above source", func(a *model.Allocation) { a.Delivery[0] = a.Rates[0] + 5 }},
		{"delivery below floor", func(a *model.Allocation) { a.Delivery[0] = 0.5 }},
		{"negative population", func(a *model.Allocation) { a.Consumers[0] = -1 }},
		{"population above max", func(a *model.Allocation) { a.Consumers[0] = p.Classes[0].MaxConsumers + 1 }},
		{"node overload", func(a *model.Allocation) {
			a.Rates[0] = 1000
			a.Delivery[0] = 1000
			a.Delivery[1] = 1000
			a.Consumers[0] = p.Classes[0].MaxConsumers
			a.Consumers[1] = p.Classes[1].MaxConsumers
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := feasibleAllocation(p)
			tt.mutate(&a)
			if err := model.CheckFeasible(p, ix, a, 1e-9); !errors.Is(err, model.ErrInfeasible) {
				t.Errorf("error = %v, want ErrInfeasible", err)
			}
		})
	}
}

func TestCheckFeasibleLinkOverload(t *testing.T) {
	p := workload.WithLinkBottlenecks(workload.Base(), 0.015) // caps at 15
	ix := model.NewIndex(p)
	a := feasibleAllocation(p) // all at rateMin 10: fits
	if err := model.CheckFeasible(p, ix, a, 0); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	a.Rates[0] = 100 // link cap 15 blown
	if err := model.CheckFeasible(p, ix, a, 0); !errors.Is(err, model.ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

// TestAllocationClone checks that the engine's allocation snapshot owns
// its storage, delivery rates included.
func TestAllocationClone(t *testing.T) {
	e, err := NewEngine(heteroProblem(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	want := e.Allocation()
	if want.Delivery == nil {
		t.Fatal("multirate allocation carries no delivery rates")
	}
	b := e.Allocation()
	b.Rates[0], b.Delivery[0], b.Consumers[0] = -9, -9, -9
	got := e.Allocation()
	if got.Rates[0] != want.Rates[0] || got.Delivery[0] != want.Delivery[0] || got.Consumers[0] != want.Consumers[0] {
		t.Error("Allocation aliases engine state")
	}
}
