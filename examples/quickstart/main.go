// Quickstart: define a small event-infrastructure resource-allocation
// problem, run the LRGP optimizer, and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

func main() {
	// One node hosting two consumer classes of one message flow. The
	// node can spend 450,000 resource units per unit time; each message
	// costs 3 units to route plus 19 units per admitted consumer (the
	// paper's Gryphon measurements).
	problem := &model.Problem{
		Name: "quickstart",
		Flows: []model.Flow{
			{ID: 0, Name: "ticker", Source: 0, RateMin: 10, RateMax: 1000},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "S0", Capacity: 450_000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			// 200 premium consumers, each valuing rate as 40*log(1+r).
			{ID: 0, Name: "premium", Flow: 0, Node: 0, MaxConsumers: 200,
				CostPerConsumer: 19, Utility: utility.NewLog(40)},
			// 3000 public consumers at rank 4.
			{ID: 1, Name: "public", Flow: 0, Node: 0, MaxConsumers: 3000,
				CostPerConsumer: 19, Utility: utility.NewLog(4)},
		},
	}

	engine, err := core.NewEngine(problem, core.Config{Adaptive: true})
	if err != nil {
		log.Fatal(err)
	}
	result := engine.Solve(250)

	fmt.Printf("total utility: %.0f\n", result.Utility)
	fmt.Printf("converged:     %v (iteration %d)\n", result.Converged, result.ConvergedAt)
	fmt.Printf("ticker rate:   %.1f msg/s (allowed 10..1000)\n", result.Allocation.Rates[0])
	for _, c := range problem.Classes {
		fmt.Printf("%-8s admitted %d of %d consumers\n",
			c.Name, result.Allocation.Consumers[c.ID], c.MaxConsumers)
	}

	// The optimizer trades admission against rate: at the chosen rate,
	// admitting one more public consumer would cost 19*rate resource
	// units that earn more utility when spent on faster delivery to the
	// already-admitted consumers.
	if err := model.CheckFeasible(problem, engine.Index(), result.Allocation, 1e-9); err != nil {
		log.Fatalf("allocation infeasible: %v", err)
	}
	fmt.Println("allocation respects all capacity constraints")
}
