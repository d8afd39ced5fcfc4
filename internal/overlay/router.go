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
// An element's cost map is its reverse index: its keys are exactly the
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
// *model.Problem is live: repairs rewrite its cost maps in place, and the
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
// the keys of its cost map, in a new slice (nil when none does).
func (r *Router) FlowsThroughLink(li int) []int32 {
	return sortedFlows(r.prob.Links[li].FlowCost)
}

// FlowsThroughNode returns the flows whose trees touch node b, ascending:
// the keys of its cost map, in a new slice (nil when none does).
func (r *Router) FlowsThroughNode(b model.NodeID) []int32 {
	return sortedFlows(r.prob.Nodes[b].FlowCost)
}

func sortedFlows(costs map[model.FlowID]float64) []int32 {
	if len(costs) == 0 {
		return nil
	}
	fl := make([]int32, 0, len(costs))
	for i := range costs {
		fl = append(fl, int32(i))
	}
	slices.Sort(fl)
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

// commitTree replaces flow i's tree, updating the problem's cost maps, the
// routing delta and its classes' depths (from traced, which noteDepths
// filled when the tree was traced). An element's cost map
// exists only while a flow crosses it (setCost, dropCost). Elements in
// both trees are untouched (their cost entry is already right).
func (r *Router) commitTree(i model.FlowID, tree Tree) {
	old := r.trees[i]
	fs := &r.flows[i]
	diffSorted(old.Links, tree.Links, func(li int, added bool) {
		if added {
			setCost(&r.prob.Links[li].FlowCost, i, fs.LinkCost)
		} else {
			dropCost(&r.prob.Links[li].FlowCost, i)
		}
		r.linkMarks.mark(model.LinkID(li))
	})
	diffSorted(old.Nodes, tree.Nodes, func(b model.NodeID, added bool) {
		if added {
			setCost(&r.prob.Nodes[b].FlowCost, i, fs.NodeCost)
		} else {
			dropCost(&r.prob.Nodes[b].FlowCost, i)
		}
		r.nodeMarks.mark(b)
	})

	off := r.classOff[i]
	copy(r.depth[off:off+len(fs.Classes)], r.traced[off:])
	r.trees[i] = tree
	r.flowMarks.mark(i)
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
