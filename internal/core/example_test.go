package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
	"repro/internal/workload"
)

// ExampleEngine_Solve optimizes a minimal one-node problem and reports
// the allocation.
func ExampleEngine_Solve() {
	p := &model.Problem{
		Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 10, RateMax: 1000}},
		Nodes: []model.Node{{ID: 0, Capacity: 450_000,
			FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})}},
		Classes: []model.Class{
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 200,
				CostPerConsumer: 19, Utility: utility.NewLog(40)},
			{ID: 1, Flow: 0, Node: 0, MaxConsumers: 3000,
				CostPerConsumer: 19, Utility: utility.NewLog(4)},
		},
	}
	e, err := core.NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	res := e.Solve(250)
	fmt.Printf("converged=%v rate=%.1f premium=%d public=%d\n",
		res.Converged, res.Allocation.Rates[0],
		res.Allocation.Consumers[0], res.Allocation.Consumers[1])
	// Output:
	// converged=true rate=38.4 premium=200 public=416
}

// ExampleGreedyPopulations runs only the admission half of LRGP at fixed
// rates.
func ExampleGreedyPopulations() {
	p := workload.Base()
	ix := model.NewIndex(p)
	rates := make([]float64, len(p.Flows))
	for i, f := range p.Flows {
		rates[i] = f.RateMin
	}
	consumers, util := core.GreedyPopulations(p, ix, rates)
	total := 0
	for _, n := range consumers {
		total += n
	}
	fmt.Printf("admitted %d consumers, utility %.0f\n", total, util)
	// Output:
	// admitted 14208 consumers, utility 1172187
}
