// Package workload constructs the test workloads of Section 4 of the LRGP
// paper, plus randomized and link-constrained variants used by this
// repository's extended tests.
//
// The base workload (Table 1) has six flows (0..5) and three consumer
// nodes S0, S1, S2. Twenty consumer classes come in pairs: both classes of
// a pair share a flow, an n^max and a rank, and differ only in their
// attachment node. The resource model is uniform: F_{b,i} = 3,
// G_{b,j} = 19, c_b = 9*10^5 (values measured on the Gryphon
// publish/subscribe system), r^min = 10 and r^max = 1000 for every flow.
// Class utility is rank_j * f(r_i) where f is one of log(1+r), r^0.25,
// r^0.5, r^0.75.
package workload

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/utility"
)

// Paper resource-model constants (Section 4.1).
const (
	// FlowNodeCost is F_{b,i}: node resource per unit rate per flow.
	FlowNodeCost = 3
	// ConsumerCost is G_{b,j}: node resource per consumer per unit rate.
	ConsumerCost = 19
	// NodeCapacity is c_b.
	NodeCapacity = 9e5
	// RateMin and RateMax bound every flow's rate.
	RateMin = 10
	RateMax = 1000
)

// Shape selects the per-class utility family f in rank * f(r).
type Shape int

// Utility shapes evaluated in the paper (Section 4.5).
const (
	// ShapeLog is f(r) = log(1+r).
	ShapeLog Shape = iota + 1
	// ShapePow25 is f(r) = r^0.25.
	ShapePow25
	// ShapePow50 is f(r) = r^0.5.
	ShapePow50
	// ShapePow75 is f(r) = r^0.75.
	ShapePow75
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case ShapeLog:
		return "log(1+r)"
	case ShapePow25:
		return "r^0.25"
	case ShapePow50:
		return "r^0.5"
	case ShapePow75:
		return "r^0.75"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Utility returns rank * f(r) for this shape.
func (s Shape) Utility(rank float64) utility.Function {
	switch s {
	case ShapePow25:
		return utility.NewPower(rank, 0.25)
	case ShapePow50:
		return utility.NewPower(rank, 0.5)
	case ShapePow75:
		return utility.NewPower(rank, 0.75)
	default:
		return utility.NewLog(rank)
	}
}

// classSpec is one row of Table 1: a pair of identical classes attached at
// two of the three consumer nodes.
type classSpec struct {
	flow  int
	nodes [2]int // indices into the 3-node set {S0, S1, S2}
	nMax  int
	rank  float64
}

// table1 is the base workload parameterization (Table 1 of the paper).
var table1 = []classSpec{
	{flow: 0, nodes: [2]int{0, 2}, nMax: 400, rank: 20},
	{flow: 0, nodes: [2]int{0, 2}, nMax: 800, rank: 5},
	{flow: 0, nodes: [2]int{0, 2}, nMax: 2000, rank: 1},
	{flow: 1, nodes: [2]int{0, 1}, nMax: 1000, rank: 15},
	{flow: 2, nodes: [2]int{1, 2}, nMax: 1500, rank: 10},
	{flow: 3, nodes: [2]int{0, 2}, nMax: 400, rank: 30},
	{flow: 3, nodes: [2]int{0, 2}, nMax: 800, rank: 3},
	{flow: 3, nodes: [2]int{0, 2}, nMax: 2000, rank: 2},
	{flow: 4, nodes: [2]int{0, 1}, nMax: 1000, rank: 40},
	{flow: 5, nodes: [2]int{1, 2}, nMax: 1500, rank: 100},
}

// baseFlowCount is the number of flows in Table 1.
const baseFlowCount = 6

// Base returns the paper's base workload: 6 flows, 3 consumer nodes, 20
// classes, logarithmic utilities.
func Base() *model.Problem {
	return Scaled(Config{Shape: ShapeLog})
}

// Config parameterizes Scaled. The zero value is normalized to the base
// workload with logarithmic utilities.
type Config struct {
	// Shape selects the utility family (default ShapeLog).
	Shape Shape
	// FlowCopies replicates the whole 6-flow workload; copy k's classes
	// attach to copy k's own consumer-node sets ("the system accommodates
	// new information flows", Section 4.3). Default 1.
	FlowCopies int
	// NodeSetCopies replicates the 3-node consumer set for each flow
	// copy; the same flows reach every replica ("the same amount of
	// information propagates to more consumers"). Default 1.
	NodeSetCopies int
}

func (c Config) normalized() Config {
	if c.Shape == 0 {
		c.Shape = ShapeLog
	}
	if c.FlowCopies <= 0 {
		c.FlowCopies = 1
	}
	if c.NodeSetCopies <= 0 {
		c.NodeSetCopies = 1
	}
	return c
}

// Scaled builds a scaled variant of the base workload per Section 4.3.
// With FlowCopies=1, NodeSetCopies=1 it returns the base workload. The
// resulting problem always validates.
func Scaled(cfg Config) *model.Problem {
	c := cfg.normalized()

	nFlows := baseFlowCount * c.FlowCopies
	nNodes := 3 * c.FlowCopies * c.NodeSetCopies
	p := &model.Problem{
		Name:    fmt.Sprintf("%df-%dn-%s", nFlows, nNodes, c.Shape),
		Flows:   make([]model.Flow, 0, nFlows),
		Classes: make([]model.Class, 0, 2*len(table1)*c.FlowCopies*c.NodeSetCopies),
		Nodes:   make([]model.Node, 0, nNodes),
	}

	// Node sets are laid out copy-major: flow copy fc owns node sets
	// [fc*NodeSetCopies, (fc+1)*NodeSetCopies), each of 3 nodes.
	nodeID := func(fc, set, local int) model.NodeID {
		return model.NodeID((fc*c.NodeSetCopies+set)*3 + local)
	}
	for b := 0; b < nNodes; b++ {
		p.Nodes = append(p.Nodes, model.Node{
			ID:       model.NodeID(b),
			Name:     fmt.Sprintf("S%d", b),
			Capacity: NodeCapacity,
		})
	}

	for fc := 0; fc < c.FlowCopies; fc++ {
		for f := 0; f < baseFlowCount; f++ {
			fid := model.FlowID(fc*baseFlowCount + f)
			p.Flows = append(p.Flows, model.Flow{
				ID:      fid,
				Name:    fmt.Sprintf("flow%d", fid),
				RateMin: RateMin,
				RateMax: RateMax,
			})
		}
		for _, spec := range table1 {
			fid := model.FlowID(fc*baseFlowCount + spec.flow)
			for set := 0; set < c.NodeSetCopies; set++ {
				for _, local := range spec.nodes {
					b := nodeID(fc, set, local)
					p.Classes = append(p.Classes, model.Class{
						ID:              model.ClassID(len(p.Classes)),
						Name:            fmt.Sprintf("c%d", len(p.Classes)),
						Flow:            fid,
						Node:            b,
						MaxConsumers:    spec.nMax,
						CostPerConsumer: ConsumerCost,
						Utility:         c.Shape.Utility(spec.rank),
					})
					p.Nodes[b].FlowCost = p.Nodes[b].FlowCost.With(fid, FlowNodeCost)
				}
			}
		}
	}

	// Each flow's source is the lowest-numbered node it reaches ("a
	// producer publishes on one flow; all producers of a flow connect to
	// the same node"). With no link bottlenecks the exact choice does not
	// affect the optimization.
	for i := range p.Flows {
		src := model.NodeID(-1)
		for b := range p.Nodes {
			if _, ok := p.Nodes[b].FlowCost.Get(model.FlowID(i)); ok {
				src = model.NodeID(b)
				break
			}
		}
		p.Flows[i].Source = src
	}
	return p
}

// Table2Workloads returns the six workloads of Table 2 in paper order:
// 6f/3n, 12f/6n, 24f/12n, 6f/6n, 6f/12n, 6f/24n, all with log utilities.
func Table2Workloads() []*model.Problem {
	configs := []Config{
		{},
		{FlowCopies: 2},
		{FlowCopies: 4},
		{NodeSetCopies: 2},
		{NodeSetCopies: 4},
		{NodeSetCopies: 8},
	}
	out := make([]*model.Problem, len(configs))
	for i, c := range configs {
		out[i] = Scaled(c)
	}
	return out
}

// Table3Shapes returns the utility shapes of Table 3 in paper order.
func Table3Shapes() []Shape {
	return []Shape{ShapeLog, ShapePow25, ShapePow50, ShapePow75}
}
