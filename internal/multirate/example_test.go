package multirate_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/utility"
)

// Example shows the multirate extension splitting delivery rates: a tiny
// premium class keeps the full stream while a large crowd receives a
// thinned one.
func Example() {
	problem := &model.Problem{
		Flows: []model.Flow{{ID: 0, Source: 0, RateMin: 10, RateMax: 1000}},
		Nodes: []model.Node{{ID: 0, Capacity: 1e6, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})}},
		Classes: []model.Class{
			{ID: 0, Name: "fast", Flow: 0, Node: 0, MaxConsumers: 20,
				CostPerConsumer: 19, Utility: utility.NewPower(100, 0.5)},
			{ID: 1, Name: "slow", Flow: 0, Node: 0, MaxConsumers: 10000,
				CostPerConsumer: 19, Utility: utility.NewLog(4)},
		},
	}
	e, err := multirate.NewEngine(problem, core.Config{Adaptive: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	res := e.Solve(600)
	a := res.Allocation
	fmt.Printf("source %g, fast delivery %g, slow delivery %g\n",
		a.Rates[0], a.Delivery[0], a.Delivery[1])
	// Output:
	// source 1000, fast delivery 1000, slow delivery 10
}
