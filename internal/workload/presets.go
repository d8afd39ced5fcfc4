package workload

import (
	"repro/internal/model"
	"repro/internal/utility"
)

// Presets for the paper's Section 1.1 motivating scenarios, shared by the
// examples and usable as library starting points.

// TradeData builds the trade-data scenario: one trade flow into a shared
// hub, a small nearly inelastic gold tier (reliability work makes its
// per-consumer cost higher) and a large elastic public tier. capacity <= 0
// selects a comfortable default.
func TradeData(capacity float64) *model.Problem {
	if capacity <= 0 {
		capacity = 2_000_000
	}
	return &model.Problem{
		Name: "trade-data",
		Flows: []model.Flow{
			{ID: 0, Name: "trades", Source: 0, RateMin: 50, RateMax: 500},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "hub", Capacity: capacity, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			{ID: 0, Name: "gold", Flow: 0, Node: 0, MaxConsumers: 60,
				CostPerConsumer: 40, Utility: utility.LinearCap{Scale: 30, Knee: 400}},
			{ID: 1, Name: "public", Flow: 0, Node: 0, MaxConsumers: 5000,
				CostPerConsumer: 19, Utility: utility.NewLog(2)},
		},
	}
}

// LatestPrice builds the latest-price scenario: one very elastic price
// flow and two consumer populations (chart watchers and alert watchers)
// whose demand scales with the given consumer count. demand <= 0 selects
// 1000.
func LatestPrice(demand int) *model.Problem {
	if demand <= 0 {
		demand = 1000
	}
	return &model.Problem{
		Name: "latest-price",
		Flows: []model.Flow{
			{ID: 0, Name: "ibm-px", Source: 0, RateMin: 1, RateMax: 200},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "edge", Capacity: 300_000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			{ID: 0, Name: "chart", Flow: 0, Node: 0, MaxConsumers: demand,
				CostPerConsumer: 19, Utility: utility.NewLog(8)},
			{ID: 1, Name: "alert", Flow: 0, Node: 0, MaxConsumers: demand / 2,
				CostPerConsumer: 19, Utility: utility.NewLog(20)},
		},
	}
}

// Heterogeneous builds the multirate showcase: a small high-rank class
// that wants the full stream and a large low-rank crowd that is nearly
// indifferent above a trickle. Single-rate optimization compromises;
// multirate splits the deliveries (see internal/multirate).
func Heterogeneous() *model.Problem {
	return &model.Problem{
		Name: "hetero-1f-1n",
		Flows: []model.Flow{
			{ID: 0, Name: "feed", Source: 0, RateMin: 10, RateMax: 1000},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "hub", Capacity: 1_000_000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			{ID: 0, Name: "fast", Flow: 0, Node: 0, MaxConsumers: 20,
				CostPerConsumer: 19, Utility: utility.NewPower(100, 0.5)},
			{ID: 1, Name: "slow", Flow: 0, Node: 0, MaxConsumers: 10000,
				CostPerConsumer: 19, Utility: utility.NewLog(4)},
		},
	}
}
