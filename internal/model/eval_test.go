package model_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestNilDeliveryIsSingleRate holds the evaluator to the single-rate
// problem: with Delivery nil, TotalUtility is the float Equation 1 gives
// (sum over classes in order of n_j U_j(r_i)), and TotalUtility, NodeUsage
// and CheckFeasible's verdict are those of the same allocation carrying
// d_j = r_i. It runs on a solved allocation, which is feasible, and on one
// with every class at full demand, which is not.
func TestNilDeliveryIsSingleRate(t *testing.T) {
	for _, p := range []*model.Problem{workload.Base(), workload.MetroSmall()} {
		e, err := core.NewEngine(p, core.Config{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		solved := e.Solve(250).Allocation
		e.Close()
		full := solved.Clone()
		for j, c := range p.Classes {
			full.Consumers[j] = c.MaxConsumers
		}
		ix := model.NewIndex(p)
		for k, a := range []model.Allocation{solved, full} {
			want := 0.0
			for _, c := range p.Classes {
				if n := a.Consumers[c.ID]; n != 0 {
					want += float64(n) * c.Utility.Value(a.Rates[c.Flow])
				}
			}
			explicit := a.Clone()
			explicit.Delivery = make([]float64, len(p.Classes))
			for j, c := range p.Classes {
				explicit.Delivery[j] = a.Rates[c.Flow]
			}
			if got, gotExplicit := model.TotalUtility(p, a), model.TotalUtility(p, explicit); got != want || gotExplicit != want {
				t.Errorf("%s #%d: TotalUtility nil %v, d = r %v, want %v", p.Name, k, got, gotExplicit, want)
			}
			for b := range p.Nodes {
				if got, gotExplicit := model.NodeUsage(p, ix, a, model.NodeID(b)), model.NodeUsage(p, ix, explicit, model.NodeID(b)); got != gotExplicit {
					t.Fatalf("%s #%d: NodeUsage(%d) nil %v, d = r %v", p.Name, k, b, got, gotExplicit)
				}
			}
			err, errExplicit := model.CheckFeasible(p, ix, a, 1e-6), model.CheckFeasible(p, ix, explicit, 1e-6)
			if wantFeasible := k == 0; (err == nil) != wantFeasible || (errExplicit == nil) != wantFeasible {
				t.Errorf("%s #%d: CheckFeasible nil %v, d = r %v, want feasible %v", p.Name, k, err, errExplicit, wantFeasible)
			}
			if err != nil && !errors.Is(err, model.ErrInfeasible) {
				t.Errorf("%s #%d: %v does not wrap ErrInfeasible", p.Name, k, err)
			}
		}
	}
}
