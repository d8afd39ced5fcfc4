package multirate

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func feasibleAllocation(p *model.Problem) Allocation {
	a := Allocation{
		SourceRates: make([]float64, len(p.Flows)),
		Delivery:    make([]float64, len(p.Classes)),
		Consumers:   make([]int, len(p.Classes)),
	}
	for i, f := range p.Flows {
		a.SourceRates[i] = f.RateMin
	}
	for j, c := range p.Classes {
		a.Delivery[j] = p.Flows[c.Flow].RateMin
	}
	return a
}

func TestCheckFeasibleViolations(t *testing.T) {
	p := workload.Heterogeneous()
	ix := model.NewIndex(p)

	if err := CheckFeasible(p, ix, feasibleAllocation(p), 0); err != nil {
		t.Fatalf("baseline allocation infeasible: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(a *Allocation)
	}{
		{"source below min", func(a *Allocation) { a.SourceRates[0] = 1 }},
		{"source above max", func(a *Allocation) { a.SourceRates[0] = 2000 }},
		{"delivery above source", func(a *Allocation) { a.Delivery[0] = a.SourceRates[0] + 5 }},
		{"delivery below floor", func(a *Allocation) { a.Delivery[0] = 0.5 }},
		{"negative population", func(a *Allocation) { a.Consumers[0] = -1 }},
		{"population above max", func(a *Allocation) { a.Consumers[0] = p.Classes[0].MaxConsumers + 1 }},
		{"node overload", func(a *Allocation) {
			a.SourceRates[0] = 1000
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
			if err := CheckFeasible(p, ix, a, 1e-9); !errors.Is(err, model.ErrInfeasible) {
				t.Errorf("error = %v, want ErrInfeasible", err)
			}
		})
	}
}

func TestCheckFeasibleLinkOverload(t *testing.T) {
	p := workload.WithLinkBottlenecks(workload.Base(), 0.015) // caps at 15
	ix := model.NewIndex(p)
	a := feasibleAllocation(p) // all at rateMin 10: fits
	if err := CheckFeasible(p, ix, a, 0); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	a.SourceRates[0] = 100 // link cap 15 blown
	if err := CheckFeasible(p, ix, a, 0); !errors.Is(err, model.ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

func TestDesiredDeliveryExported(t *testing.T) {
	u := workload.ShapeLog.Utility(20) // 20*log(1+r), U'(r) = 20/(1+r)
	// U'(d) = 0.5 => d = 39.
	if got := DesiredDelivery(u, 0.5, 10, 1000); got != 39 {
		t.Errorf("DesiredDelivery = %g, want 39", got)
	}
}
