package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/utility"
)

// RandomConfig parameterizes Random. Zero fields are normalized to the
// listed defaults.
type RandomConfig struct {
	// Flows is the number of flows (default 4).
	Flows int
	// Nodes is the number of consumer nodes (default 3).
	Nodes int
	// ClassesPerFlow is how many classes consume each flow (default 3).
	ClassesPerFlow int
	// MaxConsumers bounds each class's n^max, drawn from [1, MaxConsumers]
	// (default 200).
	MaxConsumers int
	// Capacity is the node capacity (default NodeCapacity).
	Capacity float64
	// Shape selects the utility family (default ShapeLog).
	Shape Shape
}

func (c RandomConfig) normalized() RandomConfig {
	if c.Flows <= 0 {
		c.Flows = 4
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.ClassesPerFlow <= 0 {
		c.ClassesPerFlow = 3
	}
	if c.MaxConsumers <= 0 {
		c.MaxConsumers = 200
	}
	if c.Capacity <= 0 {
		c.Capacity = NodeCapacity
	}
	if c.Shape == 0 {
		c.Shape = ShapeLog
	}
	return c
}

// Random generates a seeded, reproducible random workload. Every flow gets
// ClassesPerFlow classes attached at random nodes with random ranks in
// [1, 100] and random populations; flow-node costs and consumer costs are
// jittered around the paper's constants. The result always validates.
func Random(rng *rand.Rand, cfg RandomConfig) *model.Problem {
	c := cfg.normalized()

	p := &model.Problem{
		Name:    fmt.Sprintf("random-%df-%dn", c.Flows, c.Nodes),
		Flows:   make([]model.Flow, c.Flows),
		Classes: make([]model.Class, 0, c.Flows*c.ClassesPerFlow),
		Nodes:   make([]model.Node, c.Nodes),
	}
	for b := 0; b < c.Nodes; b++ {
		p.Nodes[b] = model.Node{
			ID:       model.NodeID(b),
			Name:     fmt.Sprintf("S%d", b),
			Capacity: c.Capacity,
		}
	}
	for i := 0; i < c.Flows; i++ {
		p.Flows[i] = model.Flow{
			ID:      model.FlowID(i),
			Name:    fmt.Sprintf("flow%d", i),
			RateMin: RateMin,
			RateMax: RateMax,
		}
		for k := 0; k < c.ClassesPerFlow; k++ {
			b := model.NodeID(rng.Intn(c.Nodes))
			rank := 1 + rng.Float64()*99
			p.Classes = append(p.Classes, model.Class{
				ID:              model.ClassID(len(p.Classes)),
				Name:            fmt.Sprintf("c%d", len(p.Classes)),
				Flow:            model.FlowID(i),
				Node:            b,
				MaxConsumers:    1 + rng.Intn(c.MaxConsumers),
				CostPerConsumer: ConsumerCost * (0.5 + rng.Float64()),
				Utility:         c.Shape.Utility(rank),
			})
			if _, ok := p.Nodes[b].FlowCost.Get(model.FlowID(i)); !ok {
				p.Nodes[b].FlowCost = p.Nodes[b].FlowCost.With(model.FlowID(i), FlowNodeCost*(0.5+rng.Float64()))
			}
		}
	}
	for i := range p.Flows {
		src := model.NodeID(0)
		for b := range p.Nodes {
			if _, ok := p.Nodes[b].FlowCost.Get(model.FlowID(i)); ok {
				src = model.NodeID(b)
				break
			}
		}
		p.Flows[i].Source = src
		// Guarantee the flow reaches its source so the problem validates
		// even if no class references it.
		if _, ok := p.Nodes[src].FlowCost.Get(model.FlowID(i)); !ok {
			p.Nodes[src].FlowCost = p.Nodes[src].FlowCost.With(model.FlowID(i), FlowNodeCost)
		}
	}
	return p
}

// WithLinkBottlenecks returns a copy of p extended with one capacity-
// constrained link per flow, between the flow's source and the next node on
// its path (or a synthetic egress pairing if the flow reaches only one
// node). Each link carries only its own flow at unit cost, with capacity
// chosen so the link binds at utilization*RateMax. It exercises Equation 4
// and the link-price update (Equation 13), which the paper's base workload
// deliberately leaves idle.
func WithLinkBottlenecks(p *model.Problem, utilization float64) *model.Problem {
	if utilization <= 0 {
		utilization = 0.5
	}
	out := p.Clone()
	out.Name = p.Name + "-links"
	ix := model.NewIndex(out)
	for i := range out.Flows {
		fid := model.FlowID(i)
		nodes := ix.NodesByFlow(fid)
		from := out.Flows[i].Source
		to := from
		for _, b := range nodes {
			if b != from {
				to = b
				break
			}
		}
		if to == from {
			// Single-node flow: pair with any other node for a synthetic
			// egress link (the overlay always has >= 2 nodes in our
			// workloads; skip degenerate single-node problems).
			if len(out.Nodes) < 2 {
				continue
			}
			to = (from + 1) % model.NodeID(len(out.Nodes))
		}
		out.Links = append(out.Links, model.Link{
			ID:       model.LinkID(len(out.Links)),
			Name:     fmt.Sprintf("l%d", len(out.Links)),
			From:     from,
			To:       to,
			Capacity: utilization * out.Flows[i].RateMax,
			FlowCost: model.NewCosts([]model.FlowID{fid}, []float64{1}),
		})
	}
	return out
}

// Tiny returns a deliberately small workload (2 flows, 2 nodes, 4 classes,
// small populations) whose optimum a brute-force search can find quickly.
// Used by optimality unit tests.
func Tiny() *model.Problem {
	p := &model.Problem{
		Name: "tiny-2f-2n",
		Flows: []model.Flow{
			{ID: 0, Name: "flow0", Source: 0, RateMin: 1, RateMax: 100},
			{ID: 1, Name: "flow1", Source: 1, RateMin: 1, RateMax: 100},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "S0", Capacity: 5000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3, 1: 3})},
			{ID: 1, Name: "S1", Capacity: 5000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3, 1: 3})},
		},
		Classes: []model.Class{
			{ID: 0, Flow: 0, Node: 0, MaxConsumers: 8, CostPerConsumer: 19, Utility: utility.NewLog(20)},
			{ID: 1, Flow: 0, Node: 1, MaxConsumers: 6, CostPerConsumer: 19, Utility: utility.NewLog(5)},
			{ID: 2, Flow: 1, Node: 0, MaxConsumers: 8, CostPerConsumer: 19, Utility: utility.NewLog(40)},
			{ID: 3, Flow: 1, Node: 1, MaxConsumers: 6, CostPerConsumer: 19, Utility: utility.NewLog(10)},
		},
	}
	return p
}
