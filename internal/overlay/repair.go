package overlay

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// RepairStats reports what one repair touched. The locality guarantee is
// visible here: a failure's Affected count equals the reverse-index size
// for the failed element, and a restore's the number of flows with a
// shortest path through the healed one — never the flow count.
type RepairStats struct {
	// Kind is "link-fail", "node-fail", "link-restore" or "node-restore".
	Kind string
	// Element is the failed/restored link index or node ID.
	Element int
	// Affected counts flows whose trees were recomputed: for failures the
	// flows indexed to the failed element, for restores the candidates —
	// the flows some shortest path of which can cross the healed element
	// (0 when nothing can, e.g. a link healed beside a dead endpoint).
	Affected int
	// Rerouted counts trees that actually changed; Unchanged counts trees
	// recomputed but identical (their slices were kept verbatim): on a
	// restore, the candidates whose tie the canonical BFS broke the old way.
	Rerouted  int
	Unchanged int
	// BFSRuns counts breadth-first traversals performed; flows sharing a
	// source share one run, and a restore adds its two distance sweeps.
	BFSRuns int
}

// RepairLink marks link li failed and re-routes exactly the flows whose
// dissemination trees used it (per the reverse index); every other tree is
// untouched, slices shared. The repair is atomic: if any affected flow can
// no longer reach a subscriber, the link is restored, no state changes,
// and the error wraps ErrNoPath with the flow context. On success the
// topology, trees, problem coefficients and pending delta all reflect the
// failure; republish via TakeDelta + Engine.ResetRouting.
func (r *Router) RepairLink(li int) (RepairStats, error) {
	if err := r.checkFrozen(); err != nil {
		return RepairStats{}, err
	}
	if err := r.topo.RemoveLink(li); err != nil {
		return RepairStats{}, err
	}
	st := RepairStats{Kind: "link-fail", Element: li}
	if err := r.rerouteAffected(&st, r.flowsByLink[li]); err != nil {
		// Rollback: the reroute committed nothing.
		if rerr := r.topo.RestoreLink(li); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of link %d failed: %v", li, rerr))
		}
		return RepairStats{}, fmt.Errorf("overlay: repair link %d: %w", li, err)
	}
	return st, nil
}

// RepairNode marks node b failed and re-routes exactly the flows whose
// trees touched it. A flow sourced at b, or with an unpruned class
// attached at b, cannot be repaired — the repair fails atomically (prune
// the class first, or accept a full rebuild). Restore/republish semantics
// match RepairLink.
func (r *Router) RepairNode(b model.NodeID) (RepairStats, error) {
	if err := r.checkFrozen(); err != nil {
		return RepairStats{}, err
	}
	if err := r.topo.RemoveNode(b); err != nil {
		return RepairStats{}, err
	}
	rollback := func() {
		if rerr := r.topo.RestoreNode(b); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of node %d failed: %v", b, rerr))
		}
	}
	for _, fi := range r.flowsByNode[b] {
		fs := &r.flows[fi]
		if fs.Source == b {
			rollback()
			return RepairStats{}, fmt.Errorf("overlay: repair node %d: flow %d (%s) is sourced there", b, fi, fs.Name)
		}
		off := r.classOff[fi]
		for k, cs := range fs.Classes {
			if cs.Node == b && !r.pruned[off+k] {
				rollback()
				return RepairStats{}, fmt.Errorf("overlay: repair node %d: flow %d (%s) class %d (%s) subscribes there",
					b, fi, fs.Name, off+k, cs.Name)
			}
		}
	}
	st := RepairStats{Kind: "node-fail", Element: int(b)}
	if err := r.rerouteAffected(&st, r.flowsByNode[b]); err != nil {
		rollback()
		return RepairStats{}, fmt.Errorf("overlay: repair node %d: %w", b, err)
	}
	return st, nil
}

// RestoreLink brings link li back and re-optimizes routing wherever the
// link can matter. Trees are canonical BFS trees, so a heal changes a
// flow's tree only if the healed link lies on a shortest path from the
// source to one of its subscribers; two distance sweeps around the link
// find those flows (restoreCandidates) and only they are re-traced. A
// candidate whose tree comes back identical keeps its old slices and
// contributes nothing to the delta.
func (r *Router) RestoreLink(li int) (RepairStats, error) {
	if err := r.checkFrozen(); err != nil {
		return RepairStats{}, err
	}
	if err := r.topo.RestoreLink(li); err != nil {
		return RepairStats{}, err
	}
	st := RepairStats{Kind: "link-restore", Element: li}
	l := r.topo.links[li]
	if err := r.rerouteAffected(&st, r.restoreCandidates(&st, l.From, l.To, 1)); err != nil {
		if rerr := r.topo.RemoveLink(li); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of link %d restore failed: %v", li, rerr))
		}
		return RepairStats{}, fmt.Errorf("overlay: restore link %d: %w", li, err)
	}
	return st, nil
}

// RestoreNode brings node b back; semantics match RestoreLink, with the
// sweeps run toward and from b itself.
func (r *Router) RestoreNode(b model.NodeID) (RepairStats, error) {
	if err := r.checkFrozen(); err != nil {
		return RepairStats{}, err
	}
	if err := r.topo.RestoreNode(b); err != nil {
		return RepairStats{}, err
	}
	st := RepairStats{Kind: "node-restore", Element: int(b)}
	if err := r.rerouteAffected(&st, r.restoreCandidates(&st, b, b, 0)); err != nil {
		if rerr := r.topo.RemoveNode(b); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of node %d restore failed: %v", b, rerr))
		}
		return RepairStats{}, fmt.Errorf("overlay: restore node %d: %w", b, err)
	}
	return st, nil
}

// restoreCandidates returns, ascending, the flows whose tree a heal can
// change: those with a subscriber t for which a path source → in, hop
// links across the healed element, out → t is no longer than t's depth in
// the current tree. Every path the heal adds crosses the element, and the
// canonical BFS path to t is the first of the shortest ones in an order
// the alive set does not affect, so it moves only if such a path is at
// least as short as the old one. The test is a superset on purpose: on a
// tie it cannot tell which path the BFS prefers, so the flow is re-traced
// and BuildTreeInto's compare-and-keep decides.
func (r *Router) restoreCandidates(st *RepairStats, in, out model.NodeID, hop int32) []int32 {
	toIn := r.sc.sweep(r.topo, in, true)
	fromOut := r.sc.sweep(r.topo, out, false)
	st.BFSRuns += 2
	up := r.sc.treeUp
	var cands []int32
	for fi := range r.flows {
		fs := &r.flows[fi]
		reach := toIn[fs.Source] + hop
		if reach >= unreachable {
			continue
		}
		// up[b] is the tree link entering b; a tree holds one per node but
		// the source, so walks from tree nodes read only fresh entries.
		for _, li := range r.trees[fi].Links {
			up[r.topo.links[li].To] = int32(li)
		}
		off := r.classOff[fi]
		for k, cs := range fs.Classes {
			if r.pruned[off+k] {
				continue
			}
			depth := int32(0)
			for at := cs.Node; at != fs.Source; at = r.topo.links[up[at]].From {
				depth++
			}
			if reach+fromOut[cs.Node] <= depth {
				cands = append(cands, int32(fi))
				break
			}
		}
	}
	return cands
}

// checkFrozen rejects a repair once links were added to the topology after
// NewRouter: the reverse indexes, delta marks and problem link slots are
// sized at construction, and routing over a newer link would index past
// them.
func (r *Router) checkFrozen() error {
	if n := r.topo.LinkCount(); n != len(r.flowsByLink) {
		return fmt.Errorf("%w: topology grew to %d links under a Router built for %d", ErrBadBuild, n, len(r.flowsByLink))
	}
	return nil
}

// pendingTree is one computed-but-uncommitted reroute.
type pendingTree struct {
	flow model.FlowID
	tree Tree
}

// rerouteAffected recomputes the trees of the given flows over the mutated
// topology, compute-then-commit: nothing is mutated unless every flow
// routes. Flows are processed grouped by source so they share BFS runs.
func (r *Router) rerouteAffected(st *RepairStats, affected []int32) error {
	// The reverse-index slice is mutated by commits; iterate a copy, in
	// source order for BFS cache hits.
	order := slices.Clone(affected)
	slices.SortFunc(order, func(x, y int32) int {
		if d := int(r.flows[x].Source) - int(r.flows[y].Source); d != 0 {
			return d
		}
		return int(x - y)
	})
	st.Affected = len(order)

	pending := make([]pendingTree, 0, len(order))
	var subs []model.NodeID
	for _, fi := range order {
		fs := &r.flows[fi]
		subs = r.subscribers(int(fi), subs[:0])
		if !r.bfsCached(fs.Source) {
			st.BFSRuns++
		}
		tree, changed, err := r.topo.BuildTreeInto(r.sc, fs.Source, subs, r.trees[fi])
		if err != nil {
			return fmt.Errorf("flow %d (%s): %w", fi, fs.Name, err)
		}
		if changed {
			pending = append(pending, pendingTree{flow: model.FlowID(fi), tree: tree})
		} else {
			st.Unchanged++
		}
	}
	for _, pt := range pending {
		r.commitTree(pt.flow, pt.tree)
	}
	st.Rerouted = len(pending)
	return nil
}

// bfsCached reports whether the scratch already holds the BFS tree for
// src over the current topology state.
func (r *Router) bfsCached(src model.NodeID) bool {
	return r.sc.bfsValid && r.sc.bfsSrc == int32(src) && r.sc.bfsTopo == r.topo.epoch
}
