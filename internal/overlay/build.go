package overlay

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/utility"
)

// FlowSpec declares one flow to be routed over a topology.
type FlowSpec struct {
	// Name labels the flow.
	Name string
	// Source is the node where producers attach.
	Source model.NodeID
	// RateMin and RateMax bound the source rate.
	RateMin, RateMax float64
	// LinkCost is L_{l,i} on every tree link (resource per unit rate).
	LinkCost float64
	// NodeCost is F_{b,i} at every tree node (resource per unit rate).
	NodeCost float64
	// Classes lists the flow's consumer classes; their Node fields define
	// the subscriber set.
	Classes []ClassSpec
}

// ClassSpec declares one consumer class of a flow.
type ClassSpec struct {
	// Name labels the class.
	Name string
	// Node is the attachment (subscriber) node.
	Node model.NodeID
	// MaxConsumers is n^max.
	MaxConsumers int
	// CostPerConsumer is G_{b,j}.
	CostPerConsumer float64
	// Utility is U_j.
	Utility utility.Function
}

// checkFlowSpecs validates the spec invariants shared by Build and
// NewRouter.
func checkFlowSpecs(flows []FlowSpec) error {
	if len(flows) == 0 {
		return fmt.Errorf("%w: no flows", ErrBadBuild)
	}
	for fi, fs := range flows {
		if !(fs.NodeCost > 0) || !(fs.LinkCost > 0) {
			return fmt.Errorf("%w: flow %d costs L=%g F=%g", ErrBadBuild, fi, fs.LinkCost, fs.NodeCost)
		}
	}
	return nil
}

// routeTrees routes every flow over t (one BuildTreeInto per flow, shared
// scratch) and returns the dissemination trees and each class's hop depth
// in its flow's tree, as the trace found it, classes flow-major.
func routeTrees(t *Topology, sc *Scratch, flows []FlowSpec) ([]Tree, []int32, error) {
	trees := make([]Tree, len(flows))
	var depth []int32
	var subs []model.NodeID
	for fi, fs := range flows {
		subs = subs[:0]
		for _, cs := range fs.Classes {
			subs = append(subs, cs.Node)
		}
		tree, _, err := t.BuildTreeInto(sc, fs.Source, subs, Tree{Source: -1})
		if err != nil {
			return nil, nil, fmt.Errorf("flow %d (%s): %w", fi, fs.Name, err)
		}
		trees[fi] = tree
		depth = append(depth, sc.depth...)
	}
	return trees, depth, nil
}

// Build routes every flow over the topology and assembles the
// optimization problem: flows reach exactly their dissemination-tree nodes
// (source, relays and subscribers all pay the flow-node cost), links carry
// exactly the flows whose trees include them, and node capacities are as
// given (one capacity for all nodes). Links no flow uses are pruned and
// link IDs renumbered; for a problem whose shape survives re-routing use
// NewRouter instead, which keeps every link.
func Build(t *Topology, nodeCapacity float64, flows []FlowSpec) (*model.Problem, error) {
	if !(nodeCapacity > 0) {
		return nil, fmt.Errorf("%w: node capacity %g", ErrBadBuild, nodeCapacity)
	}
	if err := checkFlowSpecs(flows); err != nil {
		return nil, err
	}
	trees, _, err := routeTrees(t, NewScratch(t), flows)
	if err != nil {
		return nil, err
	}

	p := assembleProblem(t, uniformCaps(t.NodeCount(), nodeCapacity), flows, trees)

	// Drop links no flow uses: the model requires positive per-flow costs
	// only for flows present, but unused links would still carry
	// capacity constraints that trivially hold; pruning keeps derived
	// problems small. Link IDs are re-numbered.
	pruned := p.Links[:0]
	for _, l := range p.Links {
		if len(l.FlowCost) == 0 {
			continue
		}
		l.ID = model.LinkID(len(pruned))
		pruned = append(pruned, l)
	}
	p.Links = pruned

	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("overlay: built problem invalid: %w", err)
	}
	return p, nil
}

func uniformCaps(n int, c float64) []float64 {
	caps := make([]float64, n)
	for b := range caps {
		caps[b] = c
	}
	return caps
}

// assembleProblem emits the model.Problem for the given routing: every
// topology node and link gets a slot (link IDs match topology indices),
// and each flow's tree writes its L/F coefficients.
func assembleProblem(t *Topology, nodeCaps []float64, flows []FlowSpec, trees []Tree) *model.Problem {
	p := &model.Problem{
		Name:  fmt.Sprintf("overlay-%df-%dn", len(flows), t.NodeCount()),
		Nodes: make([]model.Node, t.NodeCount()),
	}
	for b := range p.Nodes {
		p.Nodes[b] = model.Node{
			ID:       model.NodeID(b),
			Name:     fmt.Sprintf("S%d", b),
			Capacity: nodeCaps[b],
			FlowCost: make(map[model.FlowID]float64),
		}
	}
	for li, tl := range t.links {
		p.Links = append(p.Links, model.Link{
			ID:       model.LinkID(li),
			Name:     fmt.Sprintf("l%d-%d", tl.From, tl.To),
			From:     tl.From,
			To:       tl.To,
			Capacity: tl.Capacity,
			FlowCost: make(map[model.FlowID]float64),
		})
	}
	for fi, fs := range flows {
		fid := model.FlowID(fi)
		p.Flows = append(p.Flows, model.Flow{
			ID:      fid,
			Name:    fs.Name,
			Source:  fs.Source,
			RateMin: fs.RateMin,
			RateMax: fs.RateMax,
		})
		for _, b := range trees[fi].Nodes {
			p.Nodes[b].FlowCost[fid] = fs.NodeCost
		}
		for _, li := range trees[fi].Links {
			p.Links[li].FlowCost[fid] = fs.LinkCost
		}
		for _, cs := range fs.Classes {
			p.Classes = append(p.Classes, model.Class{
				ID:              model.ClassID(len(p.Classes)),
				Name:            cs.Name,
				Flow:            fid,
				Node:            cs.Node,
				MaxConsumers:    cs.MaxConsumers,
				CostPerConsumer: cs.CostPerConsumer,
				Utility:         cs.Utility,
			})
		}
	}
	return p
}
