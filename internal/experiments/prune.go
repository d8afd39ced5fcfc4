package experiments

import (
	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/utility"
)

// PruneExperiment (X4) exercises the second stage of the paper's Section
// 2.4 two-stage approximation, which the paper defers: after stage 1,
// flows are re-routed to only the subscribers that actually received
// consumers, freeing the flow-node costs of dead branches.
//
// The scenario: a 5-node line. A "hot" flow with heavy per-node processing
// spans the whole line to reach a near-worthless far class; "local" and
// "edge" flows feed valuable classes on the relay nodes. Stage 1 starves
// the far class; stage 2 prunes the hot flow's tail and the freed relay
// capacity admits more of the competing consumers.
func PruneExperiment(opts Options) (*overlay.TwoStageResult, error) {
	o := opts.normalized()

	topo := overlay.Line(5, 1e9)
	flows := []overlay.FlowSpec{
		{
			Name: "hot", Source: 0, RateMin: 10, RateMax: 1000,
			LinkCost: 1, NodeCost: 300,
			Classes: []overlay.ClassSpec{
				{Name: "hot-near", Node: 1, MaxConsumers: 2000, CostPerConsumer: 19, Utility: utility.NewLog(100)},
				{Name: "hot-far", Node: 4, MaxConsumers: 50, CostPerConsumer: 19, Utility: utility.NewLog(0.01)},
			},
		},
		{
			Name: "local", Source: 2, RateMin: 10, RateMax: 1000,
			LinkCost: 1, NodeCost: 3,
			Classes: []overlay.ClassSpec{
				{Name: "local-a", Node: 2, MaxConsumers: 2000, CostPerConsumer: 19, Utility: utility.NewLog(50)},
				{Name: "local-b", Node: 3, MaxConsumers: 2000, CostPerConsumer: 19, Utility: utility.NewLog(50)},
			},
		},
		{
			Name: "edge", Source: 4, RateMin: 10, RateMax: 1000,
			LinkCost: 1, NodeCost: 3,
			Classes: []overlay.ClassSpec{
				{Name: "edge-a", Node: 4, MaxConsumers: 2000, CostPerConsumer: 19, Utility: utility.NewLog(80)},
			},
		},
	}
	return overlay.TwoStageSolve(topo, 40_000, flows, core.Config{Adaptive: true}, 3*o.Iterations)
}
