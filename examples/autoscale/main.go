// Autoscale: the self-optimization loop the paper positions LRGP for —
// "nodes collaboratively optimize aggregate system performance" as the
// workload churns.
//
// A broker hosts two flows; consumers attach and detach over time and a
// node loses half its capacity mid-run (hardware degradation). After each
// change one autopilot cycle re-reads demand from the broker, warm-starts
// the LRGP engine from its current prices, and enacts the new allocation
// only when it differs enough from the previous one (Section 2.1's
// enactment hysteresis).
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"log"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

func buildProblem() *model.Problem {
	return &model.Problem{
		Name: "autoscale",
		Flows: []model.Flow{
			{ID: 0, Name: "orders", Source: 0, RateMin: 10, RateMax: 500},
			{ID: 1, Name: "telemetry", Source: 1, RateMin: 10, RateMax: 500},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "east", Capacity: 400_000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3, 1: 3})},
			{ID: 1, Name: "west", Capacity: 400_000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3, 1: 3})},
		},
		Classes: []model.Class{
			// MaxConsumers values here are placeholders; the autopilot
			// solves with live attach counts each cycle.
			{ID: 0, Name: "orders-east", Flow: 0, Node: 0, MaxConsumers: 1,
				CostPerConsumer: 19, Utility: utility.NewLog(30)},
			{ID: 1, Name: "orders-west", Flow: 0, Node: 1, MaxConsumers: 1,
				CostPerConsumer: 19, Utility: utility.NewLog(30)},
			{ID: 2, Name: "telemetry-east", Flow: 1, Node: 0, MaxConsumers: 1,
				CostPerConsumer: 19, Utility: utility.NewLog(5)},
			{ID: 3, Name: "telemetry-west", Flow: 1, Node: 1, MaxConsumers: 1,
				CostPerConsumer: 19, Utility: utility.NewLog(5)},
		},
	}
}

func main() {
	p := buildProblem()
	b, err := broker.New(p)
	if err != nil {
		log.Fatal(err)
	}
	ap, err := broker.NewAutopilot(b, broker.AutopilotConfig{
		Core:           core.Config{Adaptive: true},
		EnactThreshold: 0.02,
		ItersPerCycle:  150,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ap.Close()

	attach := func(class model.ClassID, n int) []broker.ConsumerID {
		ids := make([]broker.ConsumerID, 0, n)
		for i := 0; i < n; i++ {
			id, err := b.AttachConsumer(class, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, id)
		}
		return ids
	}
	report := func(event string) {
		alloc, enacted, err := ap.Cycle()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s rates=[%5.1f %5.1f] enacted=%-5v ", event, alloc.Rates[0], alloc.Rates[1], enacted)
		for j := range p.Classes {
			cs, err := b.ClassStats(model.ClassID(j))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s=%d/%d ", p.Classes[j].Name, cs.Admitted, cs.Attached)
		}
		fmt.Println()
	}

	fmt.Println("Autoscale: the controller re-optimizes as demand and capacity change.")
	fmt.Println()

	// Phase 1: initial demand.
	attach(0, 300)
	attach(1, 200)
	attach(2, 1000)
	attach(3, 1500)
	report("initial demand")

	// Phase 2: steady state — the same demand should not trigger
	// enactment (hysteresis).
	report("steady state (no change)")

	// Phase 3: telemetry demand triples in the west. The node was
	// already saturated, so the optimizer (correctly) finds nothing to
	// enact: the extra demand just waits unadmitted.
	attach(3, 3000)
	report("telemetry-west demand x3")

	// Phase 4: east loses half its capacity.
	if err := ap.Engine().SetNodeCapacity(0, p.Nodes[0].Capacity/2); err != nil {
		log.Fatal(err)
	}
	report("east capacity halved")

	// Phase 5: a burst of high-value order consumers arrives in the
	// east and squeezes telemetry out, then leaves again.
	extra := attach(0, 200)
	report("200 extra order-east attach")
	for _, id := range extra {
		if err := b.DetachConsumer(id); err != nil {
			log.Fatal(err)
		}
	}
	report("the 200 extras detach again")

	st := ap.Stats()
	fmt.Printf("\ncontroller ran %d cycles, %d skipped enactment (hysteresis)\n", st.Cycles, st.Skipped)
}
