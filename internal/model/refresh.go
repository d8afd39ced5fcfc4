package model

import (
	"fmt"
	"slices"
)

// RoutingDelta names the parts of a problem whose routing changed since an
// Index last saw it: the flows whose dissemination trees moved, and every
// node and link whose cost record gained or lost a flow (listing unchanged
// elements is harmless — they adopt the same record). Overlay repairs
// produce deltas (overlay.Router.TakeDelta); RefreshRouting consumes them.
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
// to d: each dirty node and link adopts p's record, and the membership
// lists and cost lists of exactly the dirty flows are rebuilt; everything
// else keeps its slices (so views handed out for untouched elements remain
// valid and shared). It generalizes Refresh, which requires every record
// to list the same flows: here dirty elements may gain and lose flows, as
// long as the member sets themselves — flow, node, link and class counts,
// and every class's (flow, node) attachment — are unchanged.
//
// Only what d names may differ from the problem the index last saw;
// capacities and bounds of clean elements are not re-read (use Refresh for
// value-only changes). What d does name is checked before anything is
// rebuilt — Validate's per-element rules on the dirty flows, their
// classes, the dirty nodes and the dirty links (errors wrap ErrInvalid),
// that every flow entering, leaving or changing its cost at a dirty
// element is a dirty flow, and that every clean element a dirty flow
// crossed keeps its record — so a problem that was valid stays valid
// without a sweep, and on error the index is unchanged. An element left
// out of d that only gained dirty flows is not found: that would take a
// sweep of every element. It must not run concurrently with readers.
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
		if err := guardMembership(ix.nodes[b], p.Nodes[b].FlowCost, dirtyFlow, "node", int(b)); err != nil {
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
		if err := guardMembership(ix.links[l], p.Links[l].FlowCost, dirtyFlow, "link", int(l)); err != nil {
			return err
		}
	}
	nodeDirtyAt := func(b NodeID) bool {
		_, ok := slices.BinarySearch(dirtyNodes, b)
		return ok
	}
	linkDirtyAt := func(l LinkID) bool {
		_, ok := slices.BinarySearch(dirtyLinks, l)
		return ok
	}
	// A dirty flow's clean elements must be as the index has them: one
	// that lost or re-costed the flow but is missing from d is caught here.
	for _, i := range d.Flows {
		for _, b := range ix.nodesByFlow[i] {
			if !nodeDirtyAt(b) && !sameCosts(ix.nodes[b], p.Nodes[b].FlowCost) {
				return fmt.Errorf("model: refresh-routing: node %d of flow %d changed but is not in the delta", b, i)
			}
		}
		for _, l := range ix.linksByFlow[i] {
			if !linkDirtyAt(l) && !sameCosts(ix.links[l], p.Links[l].FlowCost) {
				return fmt.Errorf("model: refresh-routing: link %d of flow %d changed but is not in the delta", l, i)
			}
		}
	}

	// Nothing below can fail. Resource side: the dirty elements adopt p's
	// records.
	for _, b := range dirtyNodes {
		ix.nodes[b] = p.Nodes[b].FlowCost
	}
	for _, l := range dirtyLinks {
		ix.links[l] = p.Links[l].FlowCost
	}

	// Flow side: a dirty flow's node (and link) list changes only at dirty
	// nodes (links), so the new list is the old one with dirty elements
	// filtered out, merged with the dirty elements that now carry the flow.
	// Both streams are ascending, so the merge preserves the index's
	// ordering invariant. Classes stay attached where they were; ones whose
	// node left the tree (demand-less, or validateClass refused them above)
	// drop out of the per-node lists.
	for _, i := range d.Flows {
		ix.nodesByFlow[i], ix.nodeCostByFlow[i] = mergeMembership(ix.nodesByFlow[i], dirtyNodes, nodeDirtyAt, i, ix.nodes)
		ix.linksByFlow[i], ix.linkCostByFlow[i] = mergeMembership(ix.linksByFlow[i], dirtyLinks, linkDirtyAt, i, ix.links)
		ix.classesByFlowNode[i] = ix.classesAt(i, ix.nodesByFlow[i])
	}
	ix.p = p
	return nil
}

// guardMembership refuses a dirty element's new record if a flow that is
// not dirty entered it, left it or changed its cost there: a two-pointer
// walk over the old and new records.
func guardMembership(old, cur *Costs, dirtyFlow map[FlowID]bool, kind string, e int) error {
	was, is := old.Flows(), cur.Flows()
	a, b := 0, 0
	for a < len(was) || b < len(is) {
		var i FlowID
		how := ""
		switch {
		case b >= len(is) || (a < len(was) && was[a] < is[b]):
			i, how = was[a], "left"
			a++
		case a >= len(was) || is[b] < was[a]:
			i, how = is[b], "appeared"
			b++
		default:
			if i = was[a]; old.costs[a] != cur.costs[b] {
				how = "changed its cost"
			}
			a++
			b++
		}
		if how != "" && !dirtyFlow[i] {
			return fmt.Errorf("model: refresh-routing: %s %d flow %d %s but flow not in delta", kind, e, i, how)
		}
	}
	return nil
}

// sameCosts reports whether two records list the same flows at the same
// costs.
func sameCosts(a, b *Costs) bool {
	return a == b || slices.Equal(a.Flows(), b.Flows()) && slices.Equal(a.Values(), b.Values())
}

// mergeMembership merges the clean part of flow i's old membership list
// (old entries at non-dirty elements) with the dirty elements whose record
// in recs now carries i, and returns it with i's cost at each. Both inputs
// ascending; output ascending.
func mergeMembership[T ~int](old []T, dirty []T, isDirty func(T) bool, i FlowID, recs []*Costs) ([]T, []float64) {
	out := make([]T, 0, len(old)+len(dirty))
	costs := make([]float64, 0, len(old)+len(dirty))
	a, b := 0, 0
	for {
		// Advance past dirty old entries (they re-qualify via the dirty
		// stream) and dirty elements without the flow.
		if a < len(old) && isDirty(old[a]) {
			a++
			continue
		}
		if b < len(dirty) {
			if _, ok := recs[dirty[b]].Get(i); !ok {
				b++
				continue
			}
		}
		var e T
		switch {
		case a >= len(old) && b >= len(dirty):
			return out, costs
		case b >= len(dirty) || (a < len(old) && old[a] < dirty[b]):
			e = old[a]
			a++
		default:
			e = dirty[b]
			b++
		}
		c, _ := recs[e].Get(i)
		out = append(out, e)
		costs = append(costs, c)
	}
}

func sortedDedup[T ~int](in []T) []T {
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}
