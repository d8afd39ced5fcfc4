package overlay

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/model"
)

// RepairStats reports what one repair touched. The locality guarantee is
// visible here: a failure's Affected count equals the number of flows in
// the failed element's cost record, and a restore's the number of flows with a
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
	// BFSRuns counts the canonical BFS prefixes started — flows sharing a
	// source share one, and the per-subscriber searches that meet a prefix
	// are not counted — plus, on a restore, its two distance sweeps.
	BFSRuns int
}

// RepairLink marks link li failed and re-routes exactly the flows whose
// dissemination trees used it (the flows of its cost record); every other tree
// is untouched, slices shared. The repair is atomic: if any affected flow can
// no longer reach a subscriber, the link is restored, no state changes,
// and the error wraps ErrNoPath with the flow context. On success the
// topology, trees, problem coefficients and pending delta all reflect the
// failure; republish via TakeDelta + Engine.ResetRouting.
func (r *Router) RepairLink(li int) (RepairStats, error) {
	return repair(r, "link-fail", li, r.topo.RemoveLink, r.topo.RestoreLink, func() ([]int32, error) {
		return r.FlowsThroughLink(li), nil
	})
}

// RepairNode marks node b failed and re-routes exactly the flows whose
// trees touched it. A flow sourced at b, or with a class attached at b,
// cannot be repaired — the repair fails atomically (accept a full rebuild).
// Restore/republish semantics match RepairLink.
func (r *Router) RepairNode(b model.NodeID) (RepairStats, error) {
	return repair(r, "node-fail", b, r.topo.RemoveNode, r.topo.RestoreNode, func() ([]int32, error) {
		affected := r.FlowsThroughNode(b)
		for _, fi := range affected {
			fs := &r.flows[fi]
			if fs.Source == b {
				return nil, fmt.Errorf("flow %d (%s) is sourced there", fi, fs.Name)
			}
			off := r.classOff[fi]
			for k, cs := range fs.Classes {
				if cs.Node == b {
					return nil, fmt.Errorf("flow %d (%s) class %d (%s) subscribes there", fi, fs.Name, off+k, cs.Name)
				}
			}
		}
		return affected, nil
	})
}

// RestoreLink brings link li back and re-optimizes routing wherever the
// link can matter. Trees are canonical BFS trees, so a heal changes a
// flow's tree only if the healed link lies on a shortest path from the
// source to one of its subscribers; two distance sweeps around the link
// find those flows (restoreCandidates) and only they are re-traced. A
// candidate whose tree comes back identical keeps its old slices and
// contributes nothing to the delta.
func (r *Router) RestoreLink(li int) (RepairStats, error) {
	return repair(r, "link-restore", li, r.topo.RestoreLink, r.topo.RemoveLink, func() ([]int32, error) {
		l := r.topo.links[li]
		return r.restoreCandidates(l.From, l.To, 1), nil
	})
}

// RestoreNode brings node b back; semantics match RestoreLink, with the
// sweeps run toward and from b itself.
func (r *Router) RestoreNode(b model.NodeID) (RepairStats, error) {
	return repair(r, "node-restore", b, r.topo.RestoreNode, r.topo.RemoveNode, func() ([]int32, error) {
		return r.restoreCandidates(b, b, 0), nil
	})
}

// repair is the one body of the four public repairs; kind is the
// RepairStats.Kind it reports, e the element it changes. It refuses on a
// grown topology, applies the change (an error there is returned as it
// is), asks affected for the flows to re-route, which may refuse, and
// re-routes them. A refusal after apply undoes the change — the re-route
// commits nothing unless every flow routes — so trees, problem and delta
// are as before; the error names the call ("overlay: restore node 3: …").
// An undo that fails panics, since the topology would be left changed.
func repair[E int | model.NodeID](r *Router, kind string, e E, apply, undo func(E) error, affected func() ([]int32, error)) (RepairStats, error) {
	if err := r.checkFrozen(); err != nil {
		return RepairStats{}, err
	}
	if err := apply(e); err != nil {
		return RepairStats{}, err
	}
	st := RepairStats{Kind: kind, Element: int(e)}
	noun, action, _ := strings.Cut(kind, "-")
	op, undone := "repair", ""
	if action == "restore" {
		op, undone = "restore", " restore"
		st.BFSRuns = 2 // restoreCandidates' two distance sweeps
	}
	flows, err := affected()
	if err == nil {
		err = r.rerouteAffected(&st, flows)
	}
	if err != nil {
		if rerr := undo(e); rerr != nil {
			panic(fmt.Sprintf("overlay: rollback of %s %d%s failed: %v", noun, e, undone, rerr))
		}
		return RepairStats{}, fmt.Errorf("overlay: %s %s %d: %w", op, noun, e, err)
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
//
// The distances a(x) = d(x, in) and b(x) = d(out, x) come from two sweeps
// over the healed topology, grown one level at a time, the side with the
// smaller frontier first, and stopped as soon as no pair (flow f,
// subscriber t) left unsettled can qualify. The toward side has
// settled every pair whose source it found; for the rest it must reach
// radius depth_f(t) − hop − lb_b(t), where lb_b(t) is the from side's lower
// bound on b(t): b(t) once found, its radius + 1 while it can grow,
// unreachable once it has drained. The from side mirrors that over the
// subscribers it has not found. A qualifying pair has a(source) ≤ depth −
// hop − b(t) ≤ the radius the toward side ran to, and the mirror for b(t),
// so both its distances are found and the candidates are exactly those of
// sweeps run over the whole topology. Bounds only rise as the sides grow,
// so a side that may stop stays stopped. The radii are taken per pair: one
// global bound would combine the deepest depth of any flow with the
// smallest b of any subscriber — 0 whenever out is one — and sweep nearly
// everything.
func (r *Router) restoreCandidates(in, out model.NodeID, hop int32) []int32 {
	a, b := &r.toIn, &r.fromOut
	a.start(r.topo, in, true)
	b.start(r.topo, out, false)
	foundA, foundB, open := r.stopTerms(hop)
	for {
		growA := !a.drained() && a.k < max(foundA, open-b.beyond())
		growB := !b.drained() && b.k < max(foundB, open-a.beyond())
		if !growA && !growB {
			break
		}
		s := b
		if growA && (!growB || a.frontier() <= b.frontier()) {
			s = a
		}
		s.grow(r.topo)
		// The terms move only when the toward side finds a source or the
		// from side a subscriber.
		role := anchorSubscriber
		if s == a {
			role = anchorSource
		}
		if slices.ContainsFunc(s.queue[s.lo:], func(x int32) bool { return r.anchor[x]&role != 0 }) {
			foundA, foundB, open = r.stopTerms(hop)
		}
	}
	var cands []int32
	for fi := range r.flows {
		fs := &r.flows[fi]
		if !a.found(fs.Source) {
			continue
		}
		reach := a.dist[fs.Source] + hop
		off := r.classOff[fi]
		for k, cs := range fs.Classes {
			if b.found(cs.Node) && reach+b.dist[cs.Node] <= r.depth[off+k] {
				cands = append(cands, int32(fi))
				break
			}
		}
	}
	return cands
}

// stopTerms condenses the pairs a restore's search has not settled into
// the three terms its stop radii are built from, with slack =
// depth_f(t) − hop: foundA is the largest slack − b(t) over pairs whose t
// the from side found but whose source the toward side has not, foundB the
// largest slack − a(source) over pairs whose source was found but t not,
// and open the largest slack over pairs neither side has found. The toward
// side must then reach radius max(foundA, open − b.beyond()) and the from
// side max(foundB, open − a.beyond()). Each term is -1 when it covers no
// pair.
func (r *Router) stopTerms(hop int32) (foundA, foundB, open int32) {
	a, b := &r.toIn, &r.fromOut
	foundA, foundB, open = -1, -1, -1
	for fi := range r.flows {
		fs := &r.flows[fi]
		srcFound := a.found(fs.Source)
		off := r.classOff[fi]
		for k, cs := range fs.Classes {
			slack := r.depth[off+k] - hop
			switch tFound := b.found(cs.Node); {
			case srcFound && !tFound:
				foundB = max(foundB, slack-a.dist[fs.Source])
			case !srcFound && tFound:
				foundA = max(foundA, slack-b.dist[cs.Node])
			case !srcFound:
				open = max(open, slack)
			}
		}
	}
	return foundA, foundB, open
}

// unreachable bounds the distance of a node a drained sweep did not find;
// depth minus it stays inside int32.
const unreachable = math.MaxInt32 / 4

// beyond returns a lower bound on the distance of every node the sweep has
// not found: k+1 while it can still grow, unreachable once it has drained.
func (s *levelSweep) beyond() int32 {
	if s.drained() {
		return unreachable
	}
	return s.k + 1
}

// checkFrozen rejects a repair once links were added to the topology after
// NewRouter: the delta marks and problem link slots are sized at
// construction, and routing over a newer link would index past them.
func (r *Router) checkFrozen() error {
	if n := r.topo.LinkCount(); n != len(r.prob.Links) {
		return fmt.Errorf("%w: topology grew to %d links under a Router built for %d", ErrBadBuild, n, len(r.prob.Links))
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
// routes. Flows are processed grouped by source so they share BFS runs:
// order is sorted in place, so it must not alias Router state.
func (r *Router) rerouteAffected(st *RepairStats, order []int32) error {
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
		if !r.sc.cached(r.topo, fs.Source) {
			st.BFSRuns++
		}
		tree, changed, err := r.topo.BuildTreeInto(r.sc, fs.Source, subs, r.trees[fi])
		if err != nil {
			return fmt.Errorf("flow %d (%s): %w", fi, fs.Name, err)
		}
		if changed {
			r.noteDepths(int(fi))
			pending = append(pending, pendingTree{flow: model.FlowID(fi), tree: tree})
		} else {
			st.Unchanged++
		}
	}
	r.commitTrees(pending)
	st.Rerouted = len(pending)
	return nil
}
