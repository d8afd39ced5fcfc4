package model

import (
	"fmt"
	"slices"
)

// RoutingDelta names the parts of a problem whose routing changed since an
// Index last saw it: the flows whose dissemination trees moved, and every
// node and link whose FlowCost map gained or lost an entry (listing
// unchanged elements is harmless — they rebuild to identical views).
// Overlay repairs produce deltas (overlay.Router.TakeDelta); RefreshRouting
// consumes them.
type RoutingDelta struct {
	Flows []FlowID
	Nodes []NodeID
	Links []LinkID
}

// sameShape reports, prefixed by op, how p's member sets differ from old's:
// the flow, node, link and class counts, and every class's (flow, node)
// attachment — what Refresh and RefreshRouting both require unchanged.
func sameShape(op string, old, p *Problem) error {
	switch {
	case len(p.Flows) != len(old.Flows):
		return fmt.Errorf("%s: flow count %d != %d", op, len(p.Flows), len(old.Flows))
	case len(p.Nodes) != len(old.Nodes):
		return fmt.Errorf("%s: node count %d != %d", op, len(p.Nodes), len(old.Nodes))
	case len(p.Links) != len(old.Links):
		return fmt.Errorf("%s: link count %d != %d", op, len(p.Links), len(old.Links))
	case len(p.Classes) != len(old.Classes):
		return fmt.Errorf("%s: class count %d != %d", op, len(p.Classes), len(old.Classes))
	}
	for j := range p.Classes {
		c, oc := &p.Classes[j], &old.Classes[j]
		if c.Flow != oc.Flow || c.Node != oc.Node {
			return fmt.Errorf("%s: class %d moved (flow %d→%d, node %d→%d)",
				op, j, oc.Flow, c.Flow, oc.Node, c.Node)
		}
	}
	return nil
}

// RefreshRouting re-targets the index at p after a routing change confined
// to d: membership lists and cost views are rebuilt for exactly the dirty
// flows/nodes/links (a dirty element left with no flow goes back to the
// nil view of an idle one), everything else keeps its slices (so views
// handed out for untouched elements remain valid and shared). It
// generalizes Refresh, which requires identical cost-map sparsity: here
// dirty elements may gain and lose (resource, flow) pairs, as long as the
// member sets themselves — flow, node, link and class counts, and every
// class's (flow, node) attachment — are unchanged.
//
// Only what d names may differ from the problem the index last saw. The
// delta must be complete: a node or link whose FlowCost changed but is not
// listed keeps a stale view, and cost values, capacities and bounds of
// clean elements are not re-read (use Refresh for value-only changes).
// What d does name is checked before anything is rebuilt — Validate's
// per-element rules on the dirty flows, their classes, the dirty nodes and
// the dirty links (errors wrap ErrInvalid), and that every membership
// change at a dirty element involves a dirty flow — so a problem that was
// valid stays valid without a sweep, and on error the index is unchanged.
// It must not run concurrently with readers.
func (ix *Index) RefreshRouting(p *Problem, d RoutingDelta) error {
	if err := sameShape("model: refresh-routing", ix.p, p); err != nil {
		return err
	}
	// Sorted, deduplicated dirty sets. The flow mark set doubles as the
	// membership-change guard below.
	dirtyNodes := sortedDedup(d.Nodes)
	dirtyLinks := sortedDedup(d.Links)
	dirtyFlow := make(map[FlowID]bool, len(d.Flows))

	// Validate's rules, on what d names and before anything is rebuilt:
	// every other element is unchanged since it last passed them. A class's
	// reach can only change with its flow's tree, so the dirty flows'
	// classes are the classes to re-check.
	for _, i := range d.Flows {
		if i < 0 || int(i) >= len(p.Flows) {
			return fmt.Errorf("model: refresh-routing: dirty flow %d out of range", i)
		}
		dirtyFlow[i] = true
		if err := validateFlow(p, int(i)); err != nil {
			return err
		}
		for _, j := range ix.classesByFlow[i] {
			if err := validateClass(p, int(j)); err != nil {
				return err
			}
		}
	}
	for _, b := range dirtyNodes {
		if b < 0 || int(b) >= len(p.Nodes) {
			return fmt.Errorf("model: refresh-routing: dirty node %d out of range", b)
		}
		if err := validateNode(p, int(b)); err != nil {
			return err
		}
	}
	for _, l := range dirtyLinks {
		if l < 0 || int(l) >= len(p.Links) {
			return fmt.Errorf("model: refresh-routing: dirty link %d out of range", l)
		}
		if err := validateLink(p, int(l)); err != nil {
			return err
		}
	}

	// Resource side: rebuild each dirty node's and link's view from its
	// map, guarding that any flow entering or leaving is a dirty flow. The
	// views are staged and committed together: the guard is the last thing
	// that can fail.
	views := make([]*view, 0, len(dirtyNodes)+len(dirtyLinks))
	for _, b := range dirtyNodes {
		v, err := rebuildView(p.Nodes[b].FlowCost, ix.nodes[b].flowList(), dirtyFlow,
			func(i FlowID) string { return fmt.Sprintf("node %d flow %d", b, i) })
		if err != nil {
			return err
		}
		views = append(views, v)
	}
	for _, l := range dirtyLinks {
		v, err := rebuildView(p.Links[l].FlowCost, ix.links[l].flowList(), dirtyFlow,
			func(i FlowID) string { return fmt.Sprintf("link %d flow %d", l, i) })
		if err != nil {
			return err
		}
		views = append(views, v)
	}
	for k, b := range dirtyNodes {
		ix.nodes[b] = views[k]
	}
	for k, l := range dirtyLinks {
		ix.links[l] = views[len(dirtyNodes)+k]
	}

	// Flow side: a dirty flow's node (and link) list changes only at dirty
	// nodes (links), so the new list is the old one with dirty elements
	// filtered out, merged with the dirty elements that now carry the flow.
	// Both streams are ascending, so the merge preserves the index's
	// ordering invariant.
	nodeDirtyAt := func(b NodeID) bool {
		_, ok := slices.BinarySearch(dirtyNodes, b)
		return ok
	}
	linkDirtyAt := func(l LinkID) bool {
		_, ok := slices.BinarySearch(dirtyLinks, l)
		return ok
	}
	for _, i := range d.Flows {
		fid := i
		nodes := mergeMembership(ix.nodesByFlow[i], dirtyNodes, nodeDirtyAt,
			func(b NodeID) bool { _, ok := p.Nodes[b].FlowCost[fid]; return ok })
		ncosts := make([]float64, len(nodes))
		for k, b := range nodes {
			ncosts[k] = p.Nodes[b].FlowCost[fid]
		}
		links := mergeMembership(ix.linksByFlow[i], dirtyLinks, linkDirtyAt,
			func(l LinkID) bool { _, ok := p.Links[l].FlowCost[fid]; return ok })
		lcosts := make([]float64, len(links))
		for k, l := range links {
			lcosts[k] = p.Links[l].FlowCost[fid]
		}

		// Classes stay attached where they were; ones whose node left the
		// tree (demand-less, or validateClass refused them above) drop out
		// of the per-node lists.
		lists := make([][]ClassID, len(nodes))
		for _, cid := range ix.classesByFlow[i] {
			if k, ok := slices.BinarySearch(nodes, p.Classes[cid].Node); ok {
				lists[k] = append(lists[k], cid)
			}
		}

		ix.nodesByFlow[i], ix.nodeCostByFlow[i] = nodes, ncosts
		ix.linksByFlow[i], ix.linkCostByFlow[i] = links, lcosts
		ix.classesByFlowNode[i] = lists
	}
	ix.p = p
	return nil
}

// rebuildView rebuilds one resource's view from its cost map, verifying
// every membership change against the dirty-flow set.
func rebuildView(costMap map[FlowID]float64, oldFlows []FlowID, dirtyFlow map[FlowID]bool, what func(FlowID) string) (*view, error) {
	v := newView(costMap)
	flows := v.flowList()
	// Two-pointer walk: a flow present in exactly one of (old, new) is a
	// membership change and must be dirty.
	a, b := 0, 0
	for a < len(oldFlows) || b < len(flows) {
		switch {
		case b >= len(flows) || (a < len(oldFlows) && oldFlows[a] < flows[b]):
			if !dirtyFlow[oldFlows[a]] {
				return nil, fmt.Errorf("model: refresh-routing: %s left but flow not in delta", what(oldFlows[a]))
			}
			a++
		case a >= len(oldFlows) || flows[b] < oldFlows[a]:
			if !dirtyFlow[flows[b]] {
				return nil, fmt.Errorf("model: refresh-routing: %s appeared but flow not in delta", what(flows[b]))
			}
			b++
		default:
			a++
			b++
		}
	}
	return v, nil
}

// mergeMembership merges the clean part of a flow's old membership list
// (old entries at non-dirty elements) with the dirty elements that carry
// the flow now. Both inputs ascending; output ascending.
func mergeMembership[T ~int](old []T, dirty []T, isDirty func(T) bool, hasFlow func(T) bool) []T {
	out := make([]T, 0, len(old)+len(dirty))
	a, b := 0, 0
	for a < len(old) || b < len(dirty) {
		// Advance past dirty old entries (they re-qualify via the dirty
		// stream) and dirty elements without the flow.
		if a < len(old) && isDirty(old[a]) {
			a++
			continue
		}
		if b < len(dirty) && !hasFlow(dirty[b]) {
			b++
			continue
		}
		switch {
		case a >= len(old) && b >= len(dirty):
			return out
		case b >= len(dirty) || (a < len(old) && old[a] < dirty[b]):
			out = append(out, old[a])
			a++
		default:
			out = append(out, dirty[b])
			b++
		}
	}
	return out
}

func sortedDedup[T ~int](in []T) []T {
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}
