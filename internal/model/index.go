package model

import (
	"fmt"
	"slices"
)

// Index precomputes the lookup functions of Section 2.2/2.3 of the paper
// (flowMap, attachMap, nodeClasses, linkMap, nodeMap and their inverses) so
// the optimizer's inner loops avoid repeated scans. Build it once per
// Problem with NewIndex; apart from Refresh (a warm-restart rebind to a
// topology-compatible problem) and RefreshRouting it is immutable and safe
// for concurrent reads.
//
// The element side of the index is the problem's own cost records
// (Node.FlowCost, Link.FlowCost), adopted rather than copied: they are
// immutable and already sorted by flow, so FlowsByNode and FlowCostsByNode
// hand out the record's slices. The flow side (NodesByFlow and the costs
// aligned with it) is the index's own. Capacities and class demands are
// not cached and may change between iterations.
//
// The index's size follows the problem's incidences, not its graph: a node
// or link no flow crosses holds a nil record (one word), and a node's
// classes share one flat array.
type Index struct {
	p *Problem

	// classesByFlow[i] lists the classes consuming flow i (C_i).
	classesByFlow [][]ClassID
	// nodeClasses[nodeClassOff[b]:nodeClassOff[b+1]] lists the classes
	// attached at node b (nodeClasses(b)), in ascending class order.
	nodeClassOff []int32
	nodeClasses  []ClassID
	// nodes[b] is node b's cost record, nodeMap(b) with the F_{b,i};
	// links[l] is link l's, linkMap(l) with the L_{l,i}. Nil where no
	// flow crosses.
	nodes []*Costs
	links []*Costs
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

// NewIndex builds the index. The problem must already be valid (see
// Validate); NewIndex does not re-check it.
func NewIndex(p *Problem) *Index {
	ix := &Index{
		p:                 p,
		classesByFlow:     make([][]ClassID, len(p.Flows)),
		nodeClassOff:      make([]int32, len(p.Nodes)+1),
		nodeClasses:       make([]ClassID, len(p.Classes)),
		nodes:             make([]*Costs, len(p.Nodes)),
		links:             make([]*Costs, len(p.Links)),
		classesByFlowNode: make([][][]ClassID, len(p.Flows)),
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
	for b := range p.Nodes {
		ix.nodes[b] = p.Nodes[b].FlowCost
	}
	for l := range p.Links {
		ix.links[l] = p.Links[l].FlowCost
	}
	// The flow side comes from the records directly — O(edges) rather
	// than O(resources × flows), which matters once workloads reach metro
	// scale (10^4 flows × 10^5 nodes). Elements are walked in ascending
	// order, so each flow's lists come out ascending.
	ix.nodesByFlow, ix.nodeCostByFlow = transpose[NodeID](ix.nodes, len(p.Flows))
	ix.linksByFlow, ix.linkCostByFlow = transpose[LinkID](ix.links, len(p.Flows))
	for i := range p.Flows {
		ix.classesByFlowNode[i] = ix.classesAt(FlowID(i), ix.nodesByFlow[i])
	}
	return ix
}

// transpose turns per-element records into per-flow lists: the elements
// flow i crosses, ascending, and its coefficient at each, every list sized
// exactly.
func transpose[E ~int](recs []*Costs, nFlows int) ([][]E, [][]float64) {
	count := make([]int, nFlows)
	for _, c := range recs {
		for _, i := range c.Flows() {
			count[i]++
		}
	}
	elems := make([][]E, nFlows)
	costs := make([][]float64, nFlows)
	for i, n := range count {
		elems[i] = make([]E, 0, n)
		costs[i] = make([]float64, 0, n)
	}
	for e, c := range recs {
		vals := c.Values()
		for k, i := range c.Flows() {
			elems[i] = append(elems[i], E(e))
			costs[i] = append(costs[i], vals[k])
		}
	}
	return elems, costs
}

// classesAt lists, aligned with nodes (flow i's node list), the classes
// of flow i attached at each node. One pass over the flow's classes,
// binary-searching each class's node in the sorted list: classesByFlow[i]
// is in ascending class order, so each list comes out ascending too. A
// class whose node is off the tree (a demand-less one) is in no list.
func (ix *Index) classesAt(i FlowID, nodes []NodeID) [][]ClassID {
	lists := make([][]ClassID, len(nodes))
	for _, cid := range ix.classesByFlow[i] {
		if k, ok := slices.BinarySearch(nodes, ix.p.Classes[cid].Node); ok {
			lists[k] = append(lists[k], cid)
		}
	}
	return lists
}

// Problem returns the indexed problem.
func (ix *Index) Problem() *Problem { return ix.p }

// Refresh re-targets the index at p, adopting p's cost records and
// rewriting the flow-side cost lists in place. p must be
// topology-compatible with the indexed problem: the same
// flow/node/link/class counts, every class consuming the same flow and
// attached at the same node, and every record listing exactly the same
// flows — only cost values, capacities, rate bounds, demands and utilities
// may differ. Refresh validates compatibility before mutating anything, so
// on error the index is unchanged and still describes the old problem.
//
// Refresh exists for warm restarts (core.Engine.Reset): the membership
// lists survive untouched, so slices handed out by the accessor methods
// remain valid (an old record keeps the old values), while the cost views
// pick up p's values. It must not run concurrently with readers.
func (ix *Index) Refresh(p *Problem) error {
	if err := sameShape("model: refresh", ix.p, p); err != nil {
		return err
	}
	for b := range p.Nodes {
		if !slices.Equal(p.Nodes[b].FlowCost.Flows(), ix.nodes[b].Flows()) {
			return fmt.Errorf("model: refresh: node %d reaches other flows than the index has", b)
		}
	}
	for l := range p.Links {
		if !slices.Equal(p.Links[l].FlowCost.Flows(), ix.links[l].Flows()) {
			return fmt.Errorf("model: refresh: link %d carries other flows than the index has", l)
		}
	}

	for b := range p.Nodes {
		ix.nodes[b] = p.Nodes[b].FlowCost
	}
	for l := range p.Links {
		ix.links[l] = p.Links[l].FlowCost
	}
	refill(ix.nodes, ix.nodeCostByFlow)
	refill(ix.links, ix.linkCostByFlow)
	ix.p = p
	return nil
}

// refill rewrites the flow-side cost lists from the records they were
// transposed from: walking elements in ascending order meets each flow's
// elements in its list's order, so next[i] is the position of the next.
func refill(recs []*Costs, costs [][]float64) {
	next := make([]int, len(costs))
	for _, c := range recs {
		vals := c.Values()
		for k, i := range c.Flows() {
			costs[i][next[i]] = vals[k]
			next[i]++
		}
	}
}

// ClassesByFlow returns C_i, the classes consuming flow i.
func (ix *Index) ClassesByFlow(i FlowID) []ClassID { return ix.classesByFlow[i] }

// ClassesByNode returns nodeClasses(b), the classes attached at node b.
func (ix *Index) ClassesByNode(b NodeID) []ClassID {
	lo, hi := ix.nodeClassOff[b], ix.nodeClassOff[b+1]
	return ix.nodeClasses[lo:hi:hi]
}

// FlowsByNode returns nodeMap(b), the flows reaching node b.
func (ix *Index) FlowsByNode(b NodeID) []FlowID { return ix.nodes[b].Flows() }

// FlowsByLink returns linkMap(l), the flows traversing link l.
func (ix *Index) FlowsByLink(l LinkID) []FlowID { return ix.links[l].Flows() }

// NodesByFlow returns B_i, the nodes reached by flow i.
func (ix *Index) NodesByFlow(i FlowID) []NodeID { return ix.nodesByFlow[i] }

// LinksByFlow returns L_i, the links traversed by flow i.
func (ix *Index) LinksByFlow(i FlowID) []LinkID { return ix.linksByFlow[i] }

// FlowCostsByNode returns the F_{b,i} coefficients aligned with
// FlowsByNode(b): FlowCostsByNode(b)[k] is the cost of FlowsByNode(b)[k].
func (ix *Index) FlowCostsByNode(b NodeID) []float64 { return ix.nodes[b].Values() }

// FlowCostsByLink returns the L_{l,i} coefficients aligned with
// FlowsByLink(l).
func (ix *Index) FlowCostsByLink(l LinkID) []float64 { return ix.links[l].Values() }

// NodeCostsByFlow returns the F_{b,i} coefficients aligned with
// NodesByFlow(i).
func (ix *Index) NodeCostsByFlow(i FlowID) []float64 { return ix.nodeCostByFlow[i] }

// LinkCostsByFlow returns the L_{l,i} coefficients aligned with
// LinksByFlow(i).
func (ix *Index) LinkCostsByFlow(i FlowID) []float64 { return ix.linkCostByFlow[i] }

// ClassesByFlowNode returns, aligned with NodesByFlow(i), the classes
// consuming flow i attached at each of those nodes (ascending class order).
func (ix *Index) ClassesByFlowNode(i FlowID) [][]ClassID { return ix.classesByFlowNode[i] }
