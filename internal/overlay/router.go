package overlay

import (
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
// A Router maintains reverse indexes (link → flows, node → flows routed
// through it), so RepairLink/RepairNode re-route exactly the flows whose
// trees touch the failed element; every other tree — and the problem
// coefficients behind it — stays byte-identical, slices shared. Changes
// accumulate into a model.RoutingDelta collected by TakeDelta.
//
// The topology's link set is frozen once a Router routes over it: the
// reverse indexes, delta marks and problem link slots are sized by
// NewRouter, so after a Topology.AddLink every repair and restore
// returns ErrBadBuild with nothing changed. Failing and healing existing
// elements is the supported churn; a grown topology needs a new Router.
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

	// Reverse indexes over tree membership, each list ascending:
	// flowsByLink[li] / flowsByNode[b] are the flows whose tree contains
	// the element. These are routing indexes — a node hosting only a
	// flow's subscribers appears exactly when the tree reaches it.
	flowsByLink [][]int32
	flowsByNode [][]int32

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
	flowMark   []bool
	nodeMark   []bool
	linkMark   []bool
	dirtyFlows []model.FlowID
	dirtyNodes []model.NodeID
	dirtyLinks []model.LinkID
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
		topo:        t,
		flows:       specs,
		prob:        p,
		trees:       trees,
		sc:          sc,
		flowsByLink: make([][]int32, t.LinkCount()),
		flowsByNode: make([][]int32, t.NodeCount()),
		classOff:    classOff,
		depth:       depth,
		traced:      make([]int32, nClasses),
		anchor:      anchor,
		flowMark:    make([]bool, len(flows)),
		nodeMark:    make([]bool, t.NodeCount()),
		linkMark:    make([]bool, t.LinkCount()),
	}
	for fi := range trees {
		r.indexTree(model.FlowID(fi), trees[fi])
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

// FlowsThroughLink returns the flows whose trees use link li, ascending.
// The slice is owned by the Router.
func (r *Router) FlowsThroughLink(li int) []int32 { return r.flowsByLink[li] }

// FlowsThroughNode returns the flows whose trees touch node b, ascending.
// The slice is owned by the Router.
func (r *Router) FlowsThroughNode(b model.NodeID) []int32 { return r.flowsByNode[b] }

// TakeDelta returns the routing delta accumulated since the previous call
// and resets it. Feed the result to Engine.ResetRouting (or
// model.Index.RefreshRouting) to republish the mutated problem.
func (r *Router) TakeDelta() model.RoutingDelta {
	d := model.RoutingDelta{
		Flows: r.dirtyFlows,
		Nodes: r.dirtyNodes,
		Links: r.dirtyLinks,
	}
	for _, i := range d.Flows {
		r.flowMark[i] = false
	}
	for _, b := range d.Nodes {
		r.nodeMark[b] = false
	}
	for _, l := range d.Links {
		r.linkMark[l] = false
	}
	r.dirtyFlows, r.dirtyNodes, r.dirtyLinks = nil, nil, nil
	return d
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

// indexTree adds flow i to the reverse indexes for every element of tree.
func (r *Router) indexTree(i model.FlowID, tree Tree) {
	for _, li := range tree.Links {
		r.flowsByLink[li] = insertFlow(r.flowsByLink[li], int32(i))
	}
	for _, b := range tree.Nodes {
		r.flowsByNode[b] = insertFlow(r.flowsByNode[b], int32(i))
	}
}

// commitTree replaces flow i's tree, updating the problem's cost maps, the
// reverse indexes, the routing delta and its classes' depths (from traced,
// which noteDepths filled when the tree was traced). An element's cost map
// exists only while a flow crosses it (setCost, dropCost). Old and new
// element lists are ascending, so the symmetric difference is a
// two-pointer walk; elements in both trees are untouched (their cost entry
// is already right).
func (r *Router) commitTree(i model.FlowID, tree Tree) {
	old := r.trees[i]
	fs := &r.flows[i]

	a, b := 0, 0
	for a < len(old.Links) || b < len(tree.Links) {
		switch {
		case b >= len(tree.Links) || (a < len(old.Links) && old.Links[a] < tree.Links[b]):
			li := old.Links[a]
			r.flowsByLink[li] = removeFlow(r.flowsByLink[li], int32(i))
			dropCost(&r.prob.Links[li].FlowCost, i)
			r.markLink(model.LinkID(li))
			a++
		case a >= len(old.Links) || tree.Links[b] < old.Links[a]:
			li := tree.Links[b]
			r.flowsByLink[li] = insertFlow(r.flowsByLink[li], int32(i))
			setCost(&r.prob.Links[li].FlowCost, i, fs.LinkCost)
			r.markLink(model.LinkID(li))
			b++
		default:
			a++
			b++
		}
	}
	a, b = 0, 0
	for a < len(old.Nodes) || b < len(tree.Nodes) {
		switch {
		case b >= len(tree.Nodes) || (a < len(old.Nodes) && old.Nodes[a] < tree.Nodes[b]):
			bn := old.Nodes[a]
			r.flowsByNode[bn] = removeFlow(r.flowsByNode[bn], int32(i))
			dropCost(&r.prob.Nodes[bn].FlowCost, i)
			r.markNode(bn)
			a++
		case a >= len(old.Nodes) || tree.Nodes[b] < old.Nodes[a]:
			bn := tree.Nodes[b]
			r.flowsByNode[bn] = insertFlow(r.flowsByNode[bn], int32(i))
			setCost(&r.prob.Nodes[bn].FlowCost, i, fs.NodeCost)
			r.markNode(bn)
			b++
		default:
			a++
			b++
		}
	}

	off := r.classOff[i]
	copy(r.depth[off:off+len(fs.Classes)], r.traced[off:])
	r.trees[i] = tree
	r.markFlow(i)
}

func (r *Router) markFlow(i model.FlowID) {
	if !r.flowMark[i] {
		r.flowMark[i] = true
		r.dirtyFlows = append(r.dirtyFlows, i)
	}
}

func (r *Router) markNode(b model.NodeID) {
	if !r.nodeMark[b] {
		r.nodeMark[b] = true
		r.dirtyNodes = append(r.dirtyNodes, b)
	}
}

func (r *Router) markLink(l model.LinkID) {
	if !r.linkMark[l] {
		r.linkMark[l] = true
		r.dirtyLinks = append(r.dirtyLinks, l)
	}
}

// insertFlow inserts i into ascending list fl (no-op when present).
func insertFlow(fl []int32, i int32) []int32 {
	k, ok := slices.BinarySearch(fl, i)
	if ok {
		return fl
	}
	return slices.Insert(fl, k, i)
}

// removeFlow removes i from ascending list fl (no-op when absent).
func removeFlow(fl []int32, i int32) []int32 {
	k, ok := slices.BinarySearch(fl, i)
	if !ok {
		return fl
	}
	return slices.Delete(fl, k, k+1)
}
