package overlay

import (
	"fmt"
	"strconv"

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
		if l.FlowCost.Len() == 0 {
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
// and each flow's tree writes its L/F coefficients. An element no tree
// crosses keeps a nil cost record: the problem's size is its incidences,
// not its graph.
func assembleProblem(t *Topology, nodeCaps []float64, flows []FlowSpec, trees []Tree) *model.Problem {
	nClasses := 0
	for _, fs := range flows {
		nClasses += len(fs.Classes)
	}
	p := &model.Problem{
		Name:    fmt.Sprintf("overlay-%df-%dn", len(flows), t.NodeCount()),
		Flows:   make([]model.Flow, 0, len(flows)),
		Nodes:   make([]model.Node, t.NodeCount()),
		Links:   make([]model.Link, len(t.links)),
		Classes: make([]model.Class, 0, nClasses),
	}
	for b := range p.Nodes {
		p.Nodes[b] = model.Node{
			ID:       model.NodeID(b),
			Capacity: nodeCaps[b],
		}
	}
	nameAll(len(p.Nodes), func(buf []byte, b int) []byte {
		return strconv.AppendInt(append(buf, 'S'), int64(b), 10)
	}, func(b int, name string) { p.Nodes[b].Name = name })
	for li, tl := range t.links {
		p.Links[li] = model.Link{
			ID:       model.LinkID(li),
			From:     tl.From,
			To:       tl.To,
			Capacity: tl.Capacity,
		}
	}
	nameAll(len(p.Links), func(buf []byte, li int) []byte {
		buf = strconv.AppendInt(append(buf, 'l'), int64(t.links[li].From), 10)
		return strconv.AppendInt(append(buf, '-'), int64(t.links[li].To), 10)
	}, func(li int, name string) { p.Links[li].Name = name })
	for fi, fs := range flows {
		fid := model.FlowID(fi)
		p.Flows = append(p.Flows, model.Flow{
			ID:      fid,
			Name:    fs.Name,
			Source:  fs.Source,
			RateMin: fs.RateMin,
			RateMax: fs.RateMax,
		})
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
	setRecords(len(p.Nodes), flows, func(fi int) []model.NodeID { return trees[fi].Nodes },
		func(fs *FlowSpec) float64 { return fs.NodeCost },
		func(b model.NodeID, c *model.Costs) { p.Nodes[b].FlowCost = c })
	setRecords(len(p.Links), flows, func(fi int) []int { return trees[fi].Links },
		func(fs *FlowSpec) float64 { return fs.LinkCost },
		func(li int, c *model.Costs) { p.Links[li].FlowCost = c })
	return p
}

// setRecords gives each of n elements the cost record of the trees that
// hold it: members(fi) lists the elements of flow fi's tree and cost is
// its coefficient there. The records' lists are carved out of one
// allocation each; set is not called for an element no tree holds.
func setRecords[E int | model.NodeID](n int, flows []FlowSpec, members func(fi int) []E, cost func(fs *FlowSpec) float64, set func(e E, c *model.Costs)) {
	// next[e] counts element e's pairs, then becomes the start of its run,
	// then (as the runs fill in flow order, so ascending) its end.
	next := make([]int32, n)
	for fi := range flows {
		for _, e := range members(fi) {
			next[e]++
		}
	}
	total := int32(0)
	for e, c := range next {
		next[e] = total
		total += c
	}
	allFlows := make([]model.FlowID, total)
	allCosts := make([]float64, total)
	for fi := range flows {
		v := cost(&flows[fi])
		for _, e := range members(fi) {
			allFlows[next[e]], allCosts[next[e]] = model.FlowID(fi), v
			next[e]++
		}
	}
	start := int32(0)
	for e, end := range next {
		if end > start {
			set(E(e), model.NewCosts(allFlows[start:end:end], allCosts[start:end:end]))
		}
		start = end
	}
}

// nameAll names n elements: label appends element k's name to buf, and
// set receives it as a substring of one string holding every name, so the
// problem keeps one backing array of names rather than one per element.
func nameAll(n int, label func(buf []byte, k int) []byte, set func(k int, name string)) {
	buf := make([]byte, 0, 12*n)
	ends := make([]int, n)
	for k := range ends {
		buf = label(buf, k)
		ends[k] = len(buf)
	}
	all, start := string(buf), 0
	for k, end := range ends {
		set(k, all[start:end])
		start = end
	}
}
