package model

import (
	"fmt"
	"slices"
)

// Index precomputes the lookup functions of Section 2.2/2.3 of the paper
// (flowMap, attachMap, nodeClasses, linkMap, nodeMap and their inverses) so
// the optimizer's inner loops avoid repeated scans. Build it once per
// Problem with NewIndex; apart from Refresh (a warm-restart rebind to a
// topology-compatible problem) it is immutable and safe for concurrent
// reads.
//
// Beyond the membership lists, the index denormalizes the sparse cost maps
// (Node.FlowCost, Link.FlowCost) into slices aligned with those lists, so
// the optimizer's hot loops read contiguous float64s instead of hashing
// map keys. The cost views are copies taken at NewIndex time: mutating a
// cost map afterwards does not update the index (capacities and class
// demands are not cached and may change between iterations).
//
// The index's size follows the problem's incidences, not its graph: a node
// or link no flow crosses holds a nil view (one word), and a node's classes
// share one flat array.
type Index struct {
	p *Problem

	// classesByFlow[i] lists the classes consuming flow i (C_i).
	classesByFlow [][]ClassID
	// nodeClasses[nodeClassOff[b]:nodeClassOff[b+1]] lists the classes
	// attached at node b (nodeClasses(b)), in ascending class order.
	nodeClassOff []int32
	nodeClasses  []ClassID
	// nodes[b] holds nodeMap(b) and the F_{b,i} aligned with it; links[l]
	// holds linkMap(l) and the L_{l,i}. Nil where no flow crosses.
	nodes []*view
	links []*view
	// nodesByFlow[i] lists the nodes reached by flow i (B_i).
	nodesByFlow [][]NodeID
	// linksByFlow[i] lists the links traversed by flow i (L_i).
	linksByFlow [][]LinkID

	// nodeCostByFlow[i][k] is F_{b,i} for b = nodesByFlow[i][k].
	nodeCostByFlow [][]float64
	// linkCostByFlow[i][k] is L_{l,i} for l = linksByFlow[i][k].
	linkCostByFlow [][]float64
	// classesByFlowNode[i][k] lists the classes consuming flow i that are
	// attached at node nodesByFlow[i][k], in ascending class order — the
	// C_i ∩ nodeClasses(b) intersection the Equation 9 node-price
	// aggregation needs for every (flow, node) pair each iteration.
	classesByFlowNode [][][]ClassID
}

// view is one resource's side of the index: the flows crossing it, in
// ascending flow order, and costs[k], the coefficient of flows[k]. An
// element no flow crosses has a nil *view, and both readers return nil.
type view struct {
	flows []FlowID
	costs []float64
}

func (v *view) flowList() []FlowID {
	if v == nil {
		return nil
	}
	return v.flows
}

func (v *view) costList() []float64 {
	if v == nil {
		return nil
	}
	return v.costs
}

// newView builds the view of one resource's cost map; nil when the map is
// empty.
func newView(costMap map[FlowID]float64) *view {
	if len(costMap) == 0 {
		return nil
	}
	return new(view).fill(costMap, make([]FlowID, len(costMap)), make([]float64, len(costMap)))
}

// newViews builds the view of each of n resources' cost maps, nil where a
// map is empty, carving the views and their arrays out of one allocation
// each.
func newViews(n int, costMap func(int) map[FlowID]float64) []*view {
	out := make([]*view, n)
	active, pairs := 0, 0
	for k := range out {
		if m := costMap(k); len(m) > 0 {
			active++
			pairs += len(m)
		}
	}
	views := make([]view, active)
	flows := make([]FlowID, pairs)
	costs := make([]float64, pairs)
	for k := range out {
		m := costMap(k)
		if len(m) == 0 {
			continue
		}
		n := len(m)
		out[k] = views[0].fill(m, flows[:n:n], costs[:n:n])
		views, flows, costs = views[1:], flows[n:], costs[n:]
	}
	return out
}

// fill makes v the view of costMap, its keys sorted into flows and their
// costs aligned in costs (both of the map's length), and returns v.
func (v *view) fill(costMap map[FlowID]float64, flows []FlowID, costs []float64) *view {
	flows = flows[:0]
	for i := range costMap {
		flows = append(flows, i)
	}
	slices.Sort(flows)
	for k, i := range flows {
		costs[k] = costMap[i]
	}
	*v = view{flows, costs}
	return v
}

// NewIndex builds the index. The problem must already be valid (see
// Validate); NewIndex does not re-check it.
func NewIndex(p *Problem) *Index {
	ix := &Index{
		p:             p,
		classesByFlow: make([][]ClassID, len(p.Flows)),
		nodeClassOff:  make([]int32, len(p.Nodes)+1),
		nodeClasses:   make([]ClassID, len(p.Classes)),
		nodes:         newViews(len(p.Nodes), func(b int) map[FlowID]float64 { return p.Nodes[b].FlowCost }),
		links:         newViews(len(p.Links), func(l int) map[FlowID]float64 { return p.Links[l].FlowCost }),
		nodesByFlow:   make([][]NodeID, len(p.Flows)),
		linksByFlow:   make([][]LinkID, len(p.Flows)),
	}
	// nodeClasses as a CSR array: count each node's classes, turn the
	// counts into running ends, then place the classes back to front so
	// each node's run keeps ascending class order and its end becomes its
	// start.
	for _, c := range p.Classes {
		ix.classesByFlow[c.Flow] = append(ix.classesByFlow[c.Flow], c.ID)
		ix.nodeClassOff[c.Node]++
	}
	for b := 1; b < len(ix.nodeClassOff); b++ {
		ix.nodeClassOff[b] += ix.nodeClassOff[b-1]
	}
	for j := len(p.Classes) - 1; j >= 0; j-- {
		c := &p.Classes[j]
		ix.nodeClassOff[c.Node]--
		ix.nodeClasses[ix.nodeClassOff[c.Node]] = c.ID
	}
	// Membership lists come from the sparse cost maps directly — O(edges)
	// rather than O(resources × flows), which matters once workloads reach
	// metro scale (10^4 flows × 10^5 nodes).
	for b, v := range ix.nodes {
		for _, i := range v.flowList() {
			ix.nodesByFlow[i] = append(ix.nodesByFlow[i], NodeID(b))
		}
	}
	for l, v := range ix.links {
		for _, i := range v.flowList() {
			ix.linksByFlow[i] = append(ix.linksByFlow[i], LinkID(l))
		}
	}

	// Flow-side cost views, aligned element-for-element with the
	// membership lists built above.
	ix.nodeCostByFlow = make([][]float64, len(p.Flows))
	ix.linkCostByFlow = make([][]float64, len(p.Flows))
	ix.classesByFlowNode = make([][][]ClassID, len(p.Flows))
	for i := range p.Flows {
		fid := FlowID(i)
		nodes := ix.nodesByFlow[i]
		ncosts := make([]float64, len(nodes))
		lists := make([][]ClassID, len(nodes))
		for k, b := range nodes {
			ncosts[k] = p.Nodes[b].FlowCost[fid]
		}
		// One pass over the flow's classes, binary-searching each class's
		// node in the (sorted) nodesByFlow list: classesByFlow[i] is in
		// ascending class order, so each lists[k] comes out ascending too.
		for _, cid := range ix.classesByFlow[i] {
			k, ok := slices.BinarySearch(nodes, p.Classes[cid].Node)
			if ok {
				lists[k] = append(lists[k], cid)
			}
		}
		ix.nodeCostByFlow[i] = ncosts
		ix.classesByFlowNode[i] = lists

		links := ix.linksByFlow[i]
		lcosts := make([]float64, len(links))
		for k, l := range links {
			lcosts[k] = p.Links[l].FlowCost[fid]
		}
		ix.linkCostByFlow[i] = lcosts
	}
	return ix
}

// Problem returns the indexed problem.
func (ix *Index) Problem() *Problem { return ix.p }

// Refresh re-targets the index at p, rewriting the dense cost views in
// place. p must be topology-compatible with the indexed problem: the same
// flow/node/link/class counts, every class consuming the same flow and
// attached at the same node, and every cost map defined on exactly the
// same (resource, flow) pairs — only cost values, capacities, rate bounds,
// demands and utilities may differ. Refresh validates compatibility before
// mutating anything, so on error the index is unchanged and still
// describes the old problem.
//
// Refresh exists for warm restarts (core.Engine.Reset): the membership
// lists survive untouched, so slices handed out by the accessor methods
// remain valid, while the cost views pick up p's values. It must not run
// concurrently with readers.
func (ix *Index) Refresh(p *Problem) error {
	if err := sameShape("model: refresh", ix.p, p); err != nil {
		return err
	}
	for b := range p.Nodes {
		flows := ix.nodes[b].flowList()
		if len(p.Nodes[b].FlowCost) != len(flows) {
			return fmt.Errorf("model: refresh: node %d reaches %d flows, index has %d",
				b, len(p.Nodes[b].FlowCost), len(flows))
		}
		for _, i := range flows {
			if _, ok := p.Nodes[b].FlowCost[i]; !ok {
				return fmt.Errorf("model: refresh: node %d lost flow %d", b, i)
			}
		}
	}
	for l := range p.Links {
		flows := ix.links[l].flowList()
		if len(p.Links[l].FlowCost) != len(flows) {
			return fmt.Errorf("model: refresh: link %d carries %d flows, index has %d",
				l, len(p.Links[l].FlowCost), len(flows))
		}
		for _, i := range flows {
			if _, ok := p.Links[l].FlowCost[i]; !ok {
				return fmt.Errorf("model: refresh: link %d lost flow %d", l, i)
			}
		}
	}

	for b, v := range ix.nodes {
		for k, i := range v.flowList() {
			v.costs[k] = p.Nodes[b].FlowCost[i]
		}
	}
	for l, v := range ix.links {
		for k, i := range v.flowList() {
			v.costs[k] = p.Links[l].FlowCost[i]
		}
	}
	for i := range p.Flows {
		fid := FlowID(i)
		ncosts := ix.nodeCostByFlow[i]
		for k, b := range ix.nodesByFlow[i] {
			ncosts[k] = p.Nodes[b].FlowCost[fid]
		}
		lcosts := ix.linkCostByFlow[i]
		for k, l := range ix.linksByFlow[i] {
			lcosts[k] = p.Links[l].FlowCost[fid]
		}
	}
	ix.p = p
	return nil
}

// ClassesByFlow returns C_i, the classes consuming flow i.
func (ix *Index) ClassesByFlow(i FlowID) []ClassID { return ix.classesByFlow[i] }

// ClassesByNode returns nodeClasses(b), the classes attached at node b.
func (ix *Index) ClassesByNode(b NodeID) []ClassID {
	lo, hi := ix.nodeClassOff[b], ix.nodeClassOff[b+1]
	return ix.nodeClasses[lo:hi:hi]
}

// FlowsByNode returns nodeMap(b), the flows reaching node b.
func (ix *Index) FlowsByNode(b NodeID) []FlowID { return ix.nodes[b].flowList() }

// FlowsByLink returns linkMap(l), the flows traversing link l.
func (ix *Index) FlowsByLink(l LinkID) []FlowID { return ix.links[l].flowList() }

// NodesByFlow returns B_i, the nodes reached by flow i.
func (ix *Index) NodesByFlow(i FlowID) []NodeID { return ix.nodesByFlow[i] }

// LinksByFlow returns L_i, the links traversed by flow i.
func (ix *Index) LinksByFlow(i FlowID) []LinkID { return ix.linksByFlow[i] }

// FlowCostsByNode returns the F_{b,i} coefficients aligned with
// FlowsByNode(b): FlowCostsByNode(b)[k] is the cost of FlowsByNode(b)[k].
func (ix *Index) FlowCostsByNode(b NodeID) []float64 { return ix.nodes[b].costList() }

// FlowCostsByLink returns the L_{l,i} coefficients aligned with
// FlowsByLink(l).
func (ix *Index) FlowCostsByLink(l LinkID) []float64 { return ix.links[l].costList() }

// NodeCostsByFlow returns the F_{b,i} coefficients aligned with
// NodesByFlow(i).
func (ix *Index) NodeCostsByFlow(i FlowID) []float64 { return ix.nodeCostByFlow[i] }

// LinkCostsByFlow returns the L_{l,i} coefficients aligned with
// LinksByFlow(i).
func (ix *Index) LinkCostsByFlow(i FlowID) []float64 { return ix.linkCostByFlow[i] }

// ClassesByFlowNode returns, aligned with NodesByFlow(i), the classes
// consuming flow i attached at each of those nodes (ascending class order).
func (ix *Index) ClassesByFlowNode(i FlowID) [][]ClassID { return ix.classesByFlowNode[i] }
