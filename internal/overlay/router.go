package overlay

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Router owns the routing state of one problem instance: the topology, the
// flow specs, every flow's dissemination tree, and the model.Problem whose
// L/F coefficients mirror those trees. Unlike Build, the problem keeps a
// slot for every topology link (link IDs are topology indices, dead or
// unused links included), so its shape survives re-routing and the engine
// can warm-restart across failures via Engine.ResetRouting.
//
// An element's cost record is its reverse index: it lists exactly the
// flows whose trees contain the element, so RepairLink/RepairNode re-route
// exactly the flows whose trees touch the failed element; every other tree
// — and the problem coefficients behind it — stays byte-identical, slices
// shared. Changes accumulate into a model.RoutingDelta collected by
// TakeDelta.
//
// The topology's link set is frozen once a Router routes over it: the
// delta marks and problem link slots are sized by NewRouter, so after a
// Topology.AddLink every repair and restore returns ErrBadBuild with
// nothing changed. Failing and healing existing elements is the supported
// churn; a grown topology needs a new Router.
//
// A Router is single-goroutine, like the Engine it feeds. The returned
// *model.Problem is live: repairs replace its cost records in place, and the
// caller must not Step an engine bound to it between a repair and the
// ResetRouting that republishes the index.
type Router struct {
	topo  *Topology
	flows []FlowSpec // deep-copied specs; Classes slices owned by the Router
	prob  *model.Problem
	trees []Tree
	sc    *Scratch

	// classOff[fi] is the global ID of flow fi's first class (classes are
	// laid out flow-major, matching assembleProblem).
	classOff []int
	// depth[j] is class j's hop depth in its flow's tree, kept
	// from the trace that found the tree (set by NewRouter and commitTree),
	// so a restore reads it instead of walking the tree. traced[j] holds
	// the depth found by the latest trace of j's flow that changed its
	// tree, until commitTree adopts it.
	depth  []int32
	traced []int32

	// The two sides of a restore's distance search (restoreCandidates),
	// allocated by the first restore, and anchor[b], whose bits mark a
	// node as some flow's source and as some class's node: the search
	// recounts its stop terms only when it finds one of those.
	toIn, fromOut levelSweep
	anchor        []uint8

	// Accumulated routing delta since the last TakeDelta.
	flowMarks marks[model.FlowID]
	nodeMarks marks[model.NodeID]
	linkMarks marks[model.LinkID]
}

// Router.anchor bits.
const (
	anchorSource uint8 = 1 << iota
	anchorSubscriber
)

// NewRouter routes every flow over t and returns a Router owning the
// resulting problem. nodeCaps gives each node's capacity (len must equal
// t.NodeCount()). The problem retains all topology links; Validate runs on
// the result.
func NewRouter(t *Topology, nodeCaps []float64, flows []FlowSpec) (*Router, error) {
	if len(nodeCaps) != t.NodeCount() {
		return nil, fmt.Errorf("%w: %d capacities for %d nodes", ErrBadBuild, len(nodeCaps), t.NodeCount())
	}
	for b, c := range nodeCaps {
		if !(c > 0) {
			return nil, fmt.Errorf("%w: node %d capacity %g", ErrBadBuild, b, c)
		}
	}
	if err := checkFlowSpecs(flows); err != nil {
		return nil, err
	}
	sc := NewScratch(t)
	trees, depth, err := routeTrees(t, sc, flows)
	if err != nil {
		return nil, err
	}

	specs := make([]FlowSpec, len(flows))
	classOff := make([]int, len(flows))
	anchor := make([]uint8, t.NodeCount())
	nClasses := 0
	for fi, fs := range flows {
		specs[fi] = fs
		specs[fi].Classes = slices.Clone(fs.Classes)
		classOff[fi] = nClasses
		nClasses += len(fs.Classes)
		anchor[fs.Source] |= anchorSource
		for _, cs := range fs.Classes {
			anchor[cs.Node] |= anchorSubscriber
		}
	}

	p := assembleProblem(t, nodeCaps, flows, trees)
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("overlay: routed problem invalid: %w", err)
	}

	r := &Router{
		topo:      t,
		flows:     specs,
		prob:      p,
		trees:     trees,
		sc:        sc,
		classOff:  classOff,
		depth:     depth,
		traced:    make([]int32, nClasses),
		anchor:    anchor,
		flowMarks: newMarks[model.FlowID](len(flows)),
		nodeMarks: newMarks[model.NodeID](t.NodeCount()),
		linkMarks: newMarks[model.LinkID](t.LinkCount()),
	}
	return r, nil
}

// Problem returns the Router's live problem. Repairs mutate it in place.
func (r *Router) Problem() *model.Problem { return r.prob }

// Topology returns the topology the Router routes over.
func (r *Router) Topology() *Topology { return r.topo }

// Tree returns flow i's current dissemination tree. The slices are owned
// by the Router and must not be mutated.
func (r *Router) Tree(i model.FlowID) Tree { return r.trees[i] }

// FlowsThroughLink returns the flows whose trees use link li, ascending:
// its cost record's flows, in a new slice (nil when none does).
func (r *Router) FlowsThroughLink(li int) []int32 {
	return flowList(r.prob.Links[li].FlowCost)
}

// FlowsThroughNode returns the flows whose trees touch node b, ascending:
// its cost record's flows, in a new slice (nil when none does).
func (r *Router) FlowsThroughNode(b model.NodeID) []int32 {
	return flowList(r.prob.Nodes[b].FlowCost)
}

func flowList(c *model.Costs) []int32 {
	if c == nil {
		return nil
	}
	fl := make([]int32, c.Len())
	for k, i := range c.Flows() {
		fl[k] = int32(i)
	}
	return fl
}

// TakeDelta returns the routing delta accumulated since the previous call
// and resets it. Feed the result to Engine.ResetRouting (or
// model.Index.RefreshRouting) to republish the mutated problem.
func (r *Router) TakeDelta() model.RoutingDelta {
	return model.RoutingDelta{Flows: r.flowMarks.take(), Nodes: r.nodeMarks.take(), Links: r.linkMarks.take()}
}

// subscribers appends flow fi's routing anchors — the nodes of its
// classes — to buf and returns it.
func (r *Router) subscribers(fi int, buf []model.NodeID) []model.NodeID {
	for _, cs := range r.flows[fi].Classes {
		buf = append(buf, cs.Node)
	}
	return buf
}

// noteDepths records in traced the depth of each class of flow fi in the
// tree just traced for it, as the trace found it (the scratch holds one
// depth per subscriber, in class order).
func (r *Router) noteDepths(fi int) {
	off := r.classOff[fi]
	copy(r.traced[off:off+len(r.flows[fi].Classes)], r.sc.depth)
}

// commitTrees replaces the pending flows' trees, updating the problem's
// cost records, the routing delta and the classes' depths (from traced,
// which noteDepths filled when each tree was traced). An element a flow
// enters or leaves is marked in the delta, and once all flows are walked
// it gets one new record, however many of them moved through it; elements
// in both of a flow's trees keep its entry.
func (r *Router) commitTrees(pending []pendingTree) {
	var nodeEdits, linkEdits []costEdit
	for _, pt := range pending {
		i := pt.flow
		old := r.trees[i]
		diffSorted(old.Links, pt.tree.Links, func(li int, added bool) {
			linkEdits = append(linkEdits, costEdit{li, i, added})
			r.linkMarks.mark(model.LinkID(li))
		})
		diffSorted(old.Nodes, pt.tree.Nodes, func(b model.NodeID, added bool) {
			nodeEdits = append(nodeEdits, costEdit{int(b), i, added})
			r.nodeMarks.mark(b)
		})
		off := r.classOff[i]
		copy(r.depth[off:off+len(r.flows[i].Classes)], r.traced[off:])
		r.trees[i] = pt.tree
		r.flowMarks.mark(i)
	}
	r.applyEdits(linkEdits, func(e int) **model.Costs { return &r.prob.Links[e].FlowCost },
		func(fs *FlowSpec) float64 { return fs.LinkCost })
	r.applyEdits(nodeEdits, func(e int) **model.Costs { return &r.prob.Nodes[e].FlowCost },
		func(fs *FlowSpec) float64 { return fs.NodeCost })
}

// costEdit is one flow entering (add) or leaving an element's record.
type costEdit struct {
	elem int
	flow model.FlowID
	add  bool
}

// applyEdits rebuilds the record of each element the edits name, once,
// merging its old flows with all of its edits; rec locates an element's
// record and cost gives a flow's coefficient on this kind of element.
func (r *Router) applyEdits(edits []costEdit, rec func(e int) **model.Costs, cost func(fs *FlowSpec) float64) {
	slices.SortFunc(edits, func(a, b costEdit) int {
		return cmp.Or(cmp.Compare(a.elem, b.elem), cmp.Compare(a.flow, b.flow))
	})
	for len(edits) > 0 {
		run := 1
		for run < len(edits) && edits[run].elem == edits[0].elem {
			run++
		}
		at := rec(edits[0].elem)
		old, vals := (*at).Flows(), (*at).Values()
		n := len(old)
		for _, ed := range edits[:run] {
			if ed.add {
				n++
			} else {
				n--
			}
		}
		flows := make([]model.FlowID, 0, n)
		costs := make([]float64, 0, n)
		k := 0
		for _, ed := range edits[:run] {
			for k < len(old) && old[k] < ed.flow {
				flows, costs = append(flows, old[k]), append(costs, vals[k])
				k++
			}
			if ed.add {
				flows, costs = append(flows, ed.flow), append(costs, cost(&r.flows[ed.flow]))
			} else {
				k++ // old[k] is the flow leaving
			}
		}
		*at = model.NewCosts(append(flows, old[k:]...), append(costs, vals[k:]...))
		edits = edits[run:]
	}
}

// diffSorted walks the symmetric difference of two ascending lists in
// ascending order, a two-pointer merge: visit sees each element of only
// one list, with added set when it is cur's.
func diffSorted[E cmp.Ordered](old, cur []E, visit func(e E, added bool)) {
	a, b := 0, 0
	for a < len(old) || b < len(cur) {
		switch {
		case b >= len(cur) || (a < len(old) && old[a] < cur[b]):
			visit(old[a], false)
			a++
		case a >= len(old) || cur[b] < old[a]:
			visit(cur[b], true)
			b++
		default:
			a++
			b++
		}
	}
}

// marks is a set of ids that remembers the order they were first marked
// in: the routing delta's flows, nodes and links.
type marks[T ~int] struct {
	on  []bool
	ids []T
}

func newMarks[T ~int](n int) marks[T] { return marks[T]{on: make([]bool, n)} }

func (m *marks[T]) mark(id T) {
	if !m.on[id] {
		m.on[id] = true
		m.ids = append(m.ids, id)
	}
}

// take returns the marked ids in first-marked order and empties the set.
func (m *marks[T]) take() []T {
	ids := m.ids
	for _, id := range ids {
		m.on[id] = false
	}
	m.ids = nil
	return ids
}
