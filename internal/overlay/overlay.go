// Package overlay models the network of nodes and unidirectional links an
// event-driven infrastructure runs on (Section 2.1 of the LRGP paper), and
// derives optimization problems from it: given a topology and a set of
// flows with subscriber nodes, it routes each flow along a shortest-path
// dissemination tree and emits the corresponding link costs L_{l,i} and
// flow-node costs F_{b,i} into a model.Problem.
//
// The paper's evaluation workloads sidestep topology (no link bottlenecks),
// so package workload builds problems directly; this package supplies the
// fuller substrate for the link-pricing extension experiments and for the
// broker deployment, where flows physically traverse links.
//
// Production overlays churn: RemoveLink/RemoveNode (and their Restore
// counterparts) mark elements dead without renumbering anything, and a
// Router (router.go) keeps per-flow dissemination trees repaired
// incrementally so a failure costs work proportional to the damage, not
// the topology.
package overlay

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Topology is a directed graph of overlay nodes. Node IDs are 0..N-1;
// links are added explicitly. Links and nodes can be marked dead
// (RemoveLink/RemoveNode) and later restored; IDs are stable across
// removal so derived problems keep their shape.
type Topology struct {
	nodeCount int
	links     []TopoLink
	// out[b] lists indices into links leaving node b, in[b] those entering
	// it (the reverse adjacency restore's distance sweep walks).
	out [][]int32
	in  [][]int32
	// deadLink[li] / deadNode[b] mark removed elements; a link is usable
	// only when itself and both endpoints are alive. Lazily allocated so
	// static topologies pay nothing.
	deadLink []bool
	deadNode []bool
	// epoch counts topology mutations (link/node add/remove/restore);
	// Scratch uses it to invalidate its cached BFS tree.
	epoch int64
}

// TopoLink is one unidirectional overlay link.
type TopoLink struct {
	From, To model.NodeID
	Capacity float64
}

// Errors returned by topology operations.
var (
	ErrNoPath   = errors.New("overlay: no path")
	ErrBadLink  = errors.New("overlay: invalid link")
	ErrBadNode  = errors.New("overlay: invalid node")
	ErrBadBuild = errors.New("overlay: invalid build spec")
)

// NewTopology returns a topology with n nodes and no links.
func NewTopology(n int) *Topology {
	return &Topology{nodeCount: n, out: make([][]int32, n), in: make([][]int32, n)}
}

// NodeCount returns the number of nodes.
func (t *Topology) NodeCount() int { return t.nodeCount }

// LinkCount returns the number of links ever added (dead ones included).
func (t *Topology) LinkCount() int { return len(t.links) }

// Links returns a copy of the link list, indexed by the LinkIDs used in
// derived problems. Dead links are included (IDs are stable).
func (t *Topology) Links() []TopoLink {
	out := make([]TopoLink, len(t.links))
	copy(out, t.links)
	return out
}

// AddLink adds a unidirectional link and returns its index.
func (t *Topology) AddLink(from, to model.NodeID, capacity float64) (int, error) {
	if from < 0 || int(from) >= t.nodeCount || to < 0 || int(to) >= t.nodeCount {
		return 0, fmt.Errorf("%w: endpoints %d->%d with %d nodes", ErrBadLink, from, to, t.nodeCount)
	}
	if from == to {
		return 0, fmt.Errorf("%w: self-loop at %d", ErrBadLink, from)
	}
	if !(capacity > 0) {
		return 0, fmt.Errorf("%w: capacity %g", ErrBadLink, capacity)
	}
	id := len(t.links)
	t.links = append(t.links, TopoLink{From: from, To: to, Capacity: capacity})
	t.out[from] = append(t.out[from], int32(id))
	t.in[to] = append(t.in[to], int32(id))
	if t.deadLink != nil {
		t.deadLink = append(t.deadLink, false)
	}
	t.epoch++
	return id, nil
}

// AddBidirectional adds a pair of opposite links with equal capacity and
// returns their indices.
func (t *Topology) AddBidirectional(a, b model.NodeID, capacity float64) (int, int, error) {
	ab, err := t.AddLink(a, b, capacity)
	if err != nil {
		return 0, 0, err
	}
	ba, err := t.AddLink(b, a, capacity)
	if err != nil {
		return 0, 0, err
	}
	return ab, ba, nil
}

// RemoveLink marks link li dead: no path may use it until RestoreLink.
// The link keeps its ID and capacity.
func (t *Topology) RemoveLink(li int) error {
	if li < 0 || li >= len(t.links) {
		return fmt.Errorf("%w: link %d of %d", ErrBadLink, li, len(t.links))
	}
	if t.deadLink == nil {
		t.deadLink = make([]bool, len(t.links))
	}
	if t.deadLink[li] {
		return fmt.Errorf("%w: link %d already removed", ErrBadLink, li)
	}
	t.deadLink[li] = true
	t.epoch++
	return nil
}

// RestoreLink brings a removed link back.
func (t *Topology) RestoreLink(li int) error {
	if li < 0 || li >= len(t.links) {
		return fmt.Errorf("%w: link %d of %d", ErrBadLink, li, len(t.links))
	}
	if t.deadLink == nil || !t.deadLink[li] {
		return fmt.Errorf("%w: link %d not removed", ErrBadLink, li)
	}
	t.deadLink[li] = false
	t.epoch++
	return nil
}

// RemoveNode marks node b dead: paths may neither start, end nor relay
// there, and every incident link is effectively down until RestoreNode.
// Individually removed links stay removed across a node restore.
func (t *Topology) RemoveNode(b model.NodeID) error {
	if b < 0 || int(b) >= t.nodeCount {
		return fmt.Errorf("%w: node %d of %d", ErrBadNode, b, t.nodeCount)
	}
	if t.deadNode == nil {
		t.deadNode = make([]bool, t.nodeCount)
	}
	if t.deadNode[b] {
		return fmt.Errorf("%w: node %d already removed", ErrBadNode, b)
	}
	t.deadNode[b] = true
	t.epoch++
	return nil
}

// RestoreNode brings a removed node back.
func (t *Topology) RestoreNode(b model.NodeID) error {
	if b < 0 || int(b) >= t.nodeCount {
		return fmt.Errorf("%w: node %d of %d", ErrBadNode, b, t.nodeCount)
	}
	if t.deadNode == nil || !t.deadNode[b] {
		return fmt.Errorf("%w: node %d not removed", ErrBadNode, b)
	}
	t.deadNode[b] = false
	t.epoch++
	return nil
}

// LinkAlive reports whether link li and both its endpoints are alive.
func (t *Topology) LinkAlive(li int) bool {
	if li < 0 || li >= len(t.links) {
		return false
	}
	if t.deadLink != nil && t.deadLink[li] {
		return false
	}
	l := t.links[li]
	return t.NodeAlive(l.From) && t.NodeAlive(l.To)
}

// NodeAlive reports whether node b exists and is alive.
func (t *Topology) NodeAlive(b model.NodeID) bool {
	if b < 0 || int(b) >= t.nodeCount {
		return false
	}
	return t.deadNode == nil || !t.deadNode[b]
}

// usable reports whether a traversal that reached one end of link li alive
// may cross it to next, the other end: LinkAlive without the bounds checks
// and the liveness of the end already reached, for the sweeps' inner loops
// (li always comes from an adjacency list).
func (t *Topology) usable(li int32, next model.NodeID) bool {
	return (t.deadLink == nil || !t.deadLink[li]) && (t.deadNode == nil || !t.deadNode[next])
}

// Line builds a path topology 0-1-...-n-1 with bidirectional links.
func Line(n int, capacity float64) *Topology {
	t := NewTopology(n)
	for i := 0; i+1 < n; i++ {
		// Construction cannot fail for valid i.
		_, _, _ = t.AddBidirectional(model.NodeID(i), model.NodeID(i+1), capacity)
	}
	return t
}

// Ring builds a cycle topology with bidirectional links.
func Ring(n int, capacity float64) *Topology {
	t := Line(n, capacity)
	if n > 2 {
		_, _, _ = t.AddBidirectional(model.NodeID(n-1), 0, capacity)
	}
	return t
}

// Scratch holds the reusable state of breadth-first routing. One Scratch
// serves any number of BuildTreeInto calls, and it caches the canonical
// BFS from the latest source as a resumable prefix: every node within k
// hops, with the parent the full FIFO BFS gives it. A subscriber past the
// prefix is traced by a search from both ends (trace), so a re-trace costs
// the balls around its endpoints rather than the BFS up to its deepest
// subscriber, and consecutive flows sharing a source (or repeated traces
// after one failure) share the prefix. A Scratch belongs to one goroutine.
type Scratch struct {
	// fwd is the cached BFS prefix: a forward level sweep from the source
	// that records each node's discovering link (via). The BFS tree is a
	// function of (source, alive topology) only, so every flow from the
	// same source shares it; fwd.queue[fwd.lo:] is exactly level fwd.k,
	// the last complete one, and the BFS resumes there.
	fwd levelSweep

	// The subscriber's side of a trace past the prefix: a reverse level
	// sweep from it, then the restricted pass's queue and the parents it
	// sets (rprev, valid for the nodes of the latest pass).
	back  levelSweep
	rq    []int32
	rprev []int32

	// depth[k] is the hop depth of subscriber k in the tree the latest
	// BuildTreeInto traced.
	depth []int32

	// Tree-merge marks and accumulation buffers for one trace.
	nodeSeen   []int32
	mergeEpoch int32
	treeLinks  []int32
	treeNodes  []int32

	// Cached-BFS identity: the topology, its epoch and the source node. A
	// Scratch may move between topologies, whose epochs are unrelated.
	bfsTopo  *Topology
	bfsEpoch int64
	bfsSrc   int32
}

// NewScratch returns a scratch sized for t.
func NewScratch(t *Topology) *Scratch {
	sc := &Scratch{}
	sc.ensure(t)
	return sc
}

// ensure sizes the scratch arrays the sweeps do not size themselves for t.
// Every mark is epoch-stamped, so arrays sized for a larger topology serve a
// smaller one as they are.
func (sc *Scratch) ensure(t *Topology) {
	if len(sc.nodeSeen) < t.nodeCount {
		sc.nodeSeen = make([]int32, t.nodeCount)
		sc.fwd.via = make([]int32, t.nodeCount)
	}
}

// cached reports whether the scratch holds the BFS prefix from src over
// t's current state.
func (sc *Scratch) cached(t *Topology, src model.NodeID) bool {
	return sc.bfsTopo == t && sc.bfsEpoch == t.epoch && sc.bfsSrc == int32(src)
}

// bfs starts the breadth-first parent tree from src over the alive
// topology, or keeps the cached one; trace expands it. Traversal order is
// deterministic: FIFO by level, adjacency lists in insertion order, dead
// elements skipped in place — so the tree is a pure function of (src,
// alive sets) and repairs that re-run it reproduce from-scratch routing
// exactly. A FIFO BFS never rewrites a parent, so every node of the prefix
// has the parent a traversal run to exhaustion gives it: stopping after a
// whole level changes no tree.
func (sc *Scratch) bfs(t *Topology, src model.NodeID) {
	sc.ensure(t)
	if sc.cached(t, src) {
		return
	}
	sc.fwd.start(t, src, false)
	sc.bfsTopo, sc.bfsEpoch, sc.bfsSrc = t, t.epoch, int32(src)
}

// trace finds the canonical path to dst — the one the full FIFO BFS from
// the cached source gives it — and returns its hop count, or false when
// dst is unreachable; parent then walks it. Inside the prefix the path is
// read off via. Past it, a reverse level sweep from dst and the prefix
// grow one whole level at a time, the smaller frontier first, until a node
// is found by both; a side that drains first proves dst unreachable. At
// the first meeting, with radii a and b, d(src, dst) = a+b: no shorter path
// existed, or the previous radii would have met on it. The meeting nodes
// are then the prefix's level a at backward distance b.
//
// The rest of the path comes from a FIFO pass restricted to the shortest
// paths: from the meeting nodes in queue order over the nodes at backward
// distance b−1, …, 0, adjacency order, usable links, first discovery wins.
// It sets the parent the full BFS sets. There a node at depth d takes its
// first-dequeued in-neighbour at depth d−1; when the node lies on a
// shortest path to dst every such in-neighbour does too, so it is in the
// restricted level before, and the restricted levels are dequeued in the
// full BFS's relative order. The pass writes nothing of the prefix, which
// stays resumable.
func (sc *Scratch) trace(t *Topology, dst model.NodeID) (int32, bool) {
	fwd, back := &sc.fwd, &sc.back
	if fwd.found(dst) {
		return fwd.dist[dst], true
	}
	back.start(t, dst, true)
	inPrefix := func(x int32) bool { return fwd.found(model.NodeID(x)) }
	inBack := func(x int32) bool { return back.found(model.NodeID(x)) }
	for met := false; !met; {
		if fwd.drained() || back.drained() {
			return 0, false
		}
		if fwd.frontier() <= back.frontier() {
			fwd.grow(t)
			met = slices.ContainsFunc(fwd.queue[fwd.lo:], inBack)
		} else {
			back.grow(t)
			met = slices.ContainsFunc(back.queue[back.lo:], inPrefix)
		}
	}

	b := back.k
	sc.rq = sc.rq[:0]
	for _, x := range fwd.queue[fwd.lo:] {
		if inBack(x) && back.dist[x] == b {
			sc.rq = append(sc.rq, x)
		}
	}
	if len(sc.rprev) < t.nodeCount {
		sc.rprev = make([]int32, t.nodeCount)
	}
	for j, lo := b-1, 0; j >= 0; j-- {
		hi := len(sc.rq)
		for _, at := range sc.rq[lo:hi] {
			for _, li := range t.out[at] {
				to := t.links[li].To
				if !back.found(to) || back.dist[to] != j || !t.usable(li, to) {
					continue
				}
				back.dist[to] = -1 // claimed: the first discovery is the parent
				sc.rprev[to] = li
				sc.rq = append(sc.rq, int32(to))
			}
		}
		lo = hi
	}
	return fwd.k + b, true
}

// parent returns the link into b on the path the latest trace found: the
// prefix's parent inside it, the restricted pass's past it.
func (sc *Scratch) parent(b model.NodeID) int32 {
	if sc.fwd.found(b) {
		return sc.fwd.via[b]
	}
	return sc.rprev[b]
}

// levelSweep is a breadth-first sweep of hop distances over the alive
// topology from root, along the links or (reverse) against them, grown one
// whole level at a time so its radius — every node within k hops found —
// is known between steps. A dead root reaches nothing. Marks are stamped
// with the sweep's epoch, so a start costs nothing per node, and each
// sweep owns its queue. Scratch's cached BFS prefix is a forward sweep
// that also records each node's discovering link in via; a trace's
// subscriber side and a restore's two sides leave via nil.
type levelSweep struct {
	reverse bool
	dist    []int32 // valid where seen == epoch
	via     []int32 // nil, or the link that found each node (-1 at root)
	seen    []int32
	queue   []int32
	epoch   int32
	lo      int   // queue[lo:] is the frontier, the nodes k hops away
	k       int32 // the radius
}

// start begins a sweep from root.
func (s *levelSweep) start(t *Topology, root model.NodeID, reverse bool) {
	if len(s.seen) < t.nodeCount {
		s.dist = make([]int32, t.nodeCount)
		s.seen = make([]int32, t.nodeCount)
		s.queue = make([]int32, 0, t.nodeCount)
	}
	s.epoch++
	if s.epoch <= 0 { // wrapped: reset marks
		s.epoch = 1
		clear(s.seen)
	}
	s.reverse, s.queue, s.lo, s.k = reverse, s.queue[:0], 0, 0
	if t.NodeAlive(root) {
		s.seen[root], s.dist[root] = s.epoch, 0
		if s.via != nil {
			s.via[root] = -1
		}
		s.queue = append(s.queue, int32(root))
	}
}

// grow finds the next level: the alive nodes one usable link beyond the
// frontier, in frontier order and adjacency order, the first discovery of
// each kept. The arrays, epoch and radius are held in locals: this is the
// inner loop of every trace and every restore.
func (s *levelSweep) grow(t *Topology) {
	adj, rev := t.out, s.reverse
	if rev {
		adj = t.in
	}
	seen, dist, via, queue, e := s.seen, s.dist, s.via, s.queue, s.epoch
	hi, k := len(queue), s.k+1
	for _, b := range queue[s.lo:hi] {
		for _, li := range adj[b] {
			next := t.links[li].To
			if rev {
				next = t.links[li].From
			}
			if seen[next] == e || !t.usable(li, next) {
				continue
			}
			seen[next], dist[next] = e, k
			if via != nil {
				via[next] = li
			}
			queue = append(queue, int32(next))
		}
	}
	s.queue, s.lo, s.k = queue, hi, k
}

func (s *levelSweep) found(b model.NodeID) bool { return s.seen[b] == s.epoch }

// drained reports whether the sweep has found every node it can reach.
func (s *levelSweep) drained() bool { return s.lo == len(s.queue) }

func (s *levelSweep) frontier() int { return len(s.queue) - s.lo }

// Tree is a flow's dissemination tree: the union of shortest paths from
// the source to every subscriber node.
type Tree struct {
	// Source is the tree root.
	Source model.NodeID
	// Links holds the indices of topology links in the tree, ascending.
	Links []int
	// Nodes holds every node the tree touches (source, relays,
	// subscribers), in ascending order.
	Nodes []model.NodeID
}

// equal reports whether two trees are identical.
func (tr Tree) equal(o Tree) bool {
	return tr.Source == o.Source &&
		slices.Equal(tr.Links, o.Links) &&
		slices.Equal(tr.Nodes, o.Nodes)
}

// BuildTreeInto computes the dissemination tree for a flow using sc's
// reusable state: the canonical BFS path to each subscriber, found by a
// search from both ends around the BFS prefix from src (which later calls
// that share a source and topology state resume), and walked rootward
// until the first already-merged node. When the result is identical to old,
// old is returned unchanged (changed == false) and its slices stay shared
// — the no-spurious-reroute guarantee repairs rely on. Otherwise a freshly
// allocated tree is returned; only changed trees cost heap.
func (t *Topology) BuildTreeInto(sc *Scratch, src model.NodeID, subscribers []model.NodeID, old Tree) (tree Tree, changed bool, err error) {
	if src < 0 || int(src) >= t.nodeCount {
		return Tree{}, false, fmt.Errorf("%w: source %d of %d nodes", ErrNoPath, src, t.nodeCount)
	}
	if !t.NodeAlive(src) {
		return Tree{}, false, fmt.Errorf("%w: source %d removed", ErrNoPath, src)
	}
	sc.bfs(t, src)

	sc.mergeEpoch++
	if sc.mergeEpoch <= 0 {
		sc.mergeEpoch = 1
		clear(sc.nodeSeen)
	}
	me := sc.mergeEpoch
	sc.treeLinks = sc.treeLinks[:0]
	sc.treeNodes = sc.treeNodes[:0]
	sc.depth = sc.depth[:0]
	sc.nodeSeen[src] = me
	sc.treeNodes = append(sc.treeNodes, int32(src))

	for _, dst := range subscribers {
		d, ok := int32(0), false
		if dst >= 0 && int(dst) < t.nodeCount {
			d, ok = sc.trace(t, dst)
		}
		if !ok {
			return Tree{}, false, fmt.Errorf("subscriber %d: %w: %d -> %d", dst, ErrNoPath, src, dst)
		}
		sc.depth = append(sc.depth, d)
		// Walk the BFS tree rootward, stopping at the first node already
		// in the merged tree: everything above it was traced by an earlier
		// subscriber. Each link's To node is unique in the BFS tree, so a
		// link is new exactly when its To node is.
		for at := dst; sc.nodeSeen[at] != me; {
			sc.nodeSeen[at] = me
			sc.treeNodes = append(sc.treeNodes, int32(at))
			li := sc.parent(at)
			sc.treeLinks = append(sc.treeLinks, li)
			at = t.links[li].From
		}
	}
	slices.Sort(sc.treeLinks)
	slices.Sort(sc.treeNodes)

	// Unchanged? Keep the old tree (and its slices) verbatim.
	if old.Source == src && len(old.Links) == len(sc.treeLinks) && len(old.Nodes) == len(sc.treeNodes) {
		same := true
		for k, li := range sc.treeLinks {
			if old.Links[k] != int(li) {
				same = false
				break
			}
		}
		if same {
			for k, b := range sc.treeNodes {
				if old.Nodes[k] != model.NodeID(b) {
					same = false
					break
				}
			}
		}
		if same {
			return old, false, nil
		}
	}

	tree = Tree{
		Source: src,
		Links:  make([]int, len(sc.treeLinks)),
		Nodes:  make([]model.NodeID, len(sc.treeNodes)),
	}
	for k, li := range sc.treeLinks {
		tree.Links[k] = int(li)
	}
	for k, b := range sc.treeNodes {
		tree.Nodes[k] = model.NodeID(b)
	}
	return tree, true, nil
}
