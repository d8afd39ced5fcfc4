package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// randomRouterWorkload builds a random heterogeneous topology and a flow
// population with subscribers spread over it.
func randomRouterWorkload(rng *rand.Rand, nodes, nFlows, subsPerFlow int) (*Topology, []float64, []FlowSpec) {
	tp := RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	caps := make([]float64, nodes)
	for b := range caps {
		caps[b] = 5e4 + rng.Float64()*1e5
	}
	flows := make([]FlowSpec, nFlows)
	for fi := range flows {
		fs := FlowSpec{
			Name:     "f" + string(rune('a'+fi%26)) + string(rune('0'+fi/26)),
			Source:   model.NodeID(rng.Intn(nodes)),
			RateMin:  1,
			RateMax:  100,
			LinkCost: 1,
			NodeCost: 2,
		}
		for s := 0; s < subsPerFlow; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name:            "c",
				Node:            model.NodeID(rng.Intn(nodes)),
				MaxConsumers:    10 + rng.Intn(50),
				CostPerConsumer: 5,
				Utility:         utility.NewLog(1 + rng.Float64()*20),
			})
		}
		flows[fi] = fs
	}
	return tp, caps, flows
}

// sameSlice reports whether two slices share identity (same backing
// array and length) — the no-spurious-reroute guarantee.
func sameSlice[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// checkRouterInvariants verifies that every Router tree equals a
// from-scratch buildTree over the mutated topology, and that the problem
// coefficients and reverse indexes mirror the trees exactly.
func checkRouterInvariants(t *testing.T, r *Router) {
	t.Helper()
	p := r.Problem()
	var subs []model.NodeID
	for fi := range p.Flows {
		subs = subs[:0]
		for _, cs := range r.flows[fi].Classes {
			subs = append(subs, cs.Node)
		}
		want, err := buildTree(r.Topology(), r.flows[fi].Source, subs)
		if err != nil {
			t.Fatalf("from-scratch route of flow %d failed: %v", fi, err)
		}
		got := r.Tree(model.FlowID(fi))
		if !got.equal(want) {
			t.Fatalf("flow %d tree diverged from from-scratch buildTree:\n got %+v\nwant %+v", fi, got, want)
		}
		// Coefficients mirror the tree.
		for _, li := range got.Links {
			if p.Links[li].FlowCost[model.FlowID(fi)] != r.flows[fi].LinkCost {
				t.Fatalf("flow %d link %d missing/incorrect cost", fi, li)
			}
		}
		for _, b := range got.Nodes {
			if p.Nodes[b].FlowCost[model.FlowID(fi)] != r.flows[fi].NodeCost {
				t.Fatalf("flow %d node %d missing/incorrect cost", fi, b)
			}
		}
	}
	// No stray coefficients or index entries beyond the trees.
	nLink, nNode := 0, 0
	for li := range p.Links {
		nLink += len(p.Links[li].FlowCost)
		if len(p.Links[li].FlowCost) != len(r.FlowsThroughLink(li)) {
			t.Fatalf("link %d: %d coefficients vs %d indexed flows", li, len(p.Links[li].FlowCost), len(r.FlowsThroughLink(li)))
		}
	}
	for b := range p.Nodes {
		nNode += len(p.Nodes[b].FlowCost)
		if len(p.Nodes[b].FlowCost) != len(r.FlowsThroughNode(model.NodeID(b))) {
			t.Fatalf("node %d: %d coefficients vs %d indexed flows", b, len(p.Nodes[b].FlowCost), len(r.FlowsThroughNode(model.NodeID(b))))
		}
	}
	wantLink, wantNode := 0, 0
	for fi := range p.Flows {
		wantLink += len(r.Tree(model.FlowID(fi)).Links)
		wantNode += len(r.Tree(model.FlowID(fi)).Nodes)
	}
	if nLink != wantLink || nNode != wantNode {
		t.Fatalf("coefficient totals (links %d, nodes %d) != tree totals (%d, %d)", nLink, nNode, wantLink, wantNode)
	}
}

// expectIndexEqual compares every accessor of got against a freshly built
// index over the same problem.
func expectIndexEqual(t *testing.T, p *model.Problem, got *model.Index) {
	t.Helper()
	want := model.NewIndex(p)
	for i := range p.Flows {
		fid := model.FlowID(i)
		if !equalIDs(got.NodesByFlow(fid), want.NodesByFlow(fid)) {
			t.Fatalf("flow %d NodesByFlow: got %v want %v", i, got.NodesByFlow(fid), want.NodesByFlow(fid))
		}
		if !equalIDs(got.LinksByFlow(fid), want.LinksByFlow(fid)) {
			t.Fatalf("flow %d LinksByFlow: got %v want %v", i, got.LinksByFlow(fid), want.LinksByFlow(fid))
		}
		if !equalFloats(got.NodeCostsByFlow(fid), want.NodeCostsByFlow(fid)) {
			t.Fatalf("flow %d NodeCostsByFlow mismatch", i)
		}
		if !equalFloats(got.LinkCostsByFlow(fid), want.LinkCostsByFlow(fid)) {
			t.Fatalf("flow %d LinkCostsByFlow mismatch", i)
		}
		g, w := got.ClassesByFlowNode(fid), want.ClassesByFlowNode(fid)
		if len(g) != len(w) {
			t.Fatalf("flow %d ClassesByFlowNode length %d != %d", i, len(g), len(w))
		}
		for k := range g {
			if !equalIDs(g[k], w[k]) {
				t.Fatalf("flow %d ClassesByFlowNode[%d]: got %v want %v", i, k, g[k], w[k])
			}
		}
	}
	for b := range p.Nodes {
		bid := model.NodeID(b)
		if !equalIDs(got.FlowsByNode(bid), want.FlowsByNode(bid)) {
			t.Fatalf("node %d FlowsByNode: got %v want %v", b, got.FlowsByNode(bid), want.FlowsByNode(bid))
		}
		if !equalFloats(got.FlowCostsByNode(bid), want.FlowCostsByNode(bid)) {
			t.Fatalf("node %d FlowCostsByNode mismatch", b)
		}
	}
	for l := range p.Links {
		lid := model.LinkID(l)
		if !equalIDs(got.FlowsByLink(lid), want.FlowsByLink(lid)) {
			t.Fatalf("link %d FlowsByLink: got %v want %v", l, got.FlowsByLink(lid), want.FlowsByLink(lid))
		}
		if !equalFloats(got.FlowCostsByLink(lid), want.FlowCostsByLink(lid)) {
			t.Fatalf("link %d FlowCostsByLink mismatch", l)
		}
	}
}

func equalIDs[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool { return equalIDs(a, b) }

// TestRouterRepairProperty drives a Router through a random sequence of
// link kills and restores, checking after every event that (1) all trees
// match from-scratch buildTree on the mutated topology, (2) flows not
// indexed to a killed link keep their tree slices verbatim, (3) repair
// stats report exactly the indexed flows, and (4) RefreshRouting keeps a
// live index equal to a fresh NewIndex.
func TestRouterRepairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tp, caps, flows := randomRouterWorkload(rng, 60, 8, 3)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	checkRouterInvariants(t, r)
	ix := model.NewIndex(r.Problem())
	r.TakeDelta() // construction accumulates nothing, but start clean

	var dead []int
	for ev := 0; ev < 60; ev++ {
		restore := len(dead) > 0 && rng.Intn(3) == 0
		if restore {
			k := rng.Intn(len(dead))
			li := dead[k]
			st, err := r.RestoreLink(li)
			if err != nil {
				t.Fatalf("event %d: restore link %d: %v", ev, li, err)
			}
			if st.Rerouted > st.Affected || st.Affected > len(flows) {
				t.Fatalf("event %d: restore rerouted %d of %d candidates of %d flows", ev, st.Rerouted, st.Affected, len(flows))
			}
			dead = append(dead[:k], dead[k+1:]...)
		} else {
			li := rng.Intn(tp.LinkCount())
			if !tp.LinkAlive(li) {
				continue
			}
			indexed := append([]int32(nil), r.FlowsThroughLink(li)...)
			before := make([]Tree, len(flows))
			for fi := range flows {
				before[fi] = r.Tree(model.FlowID(fi))
			}
			st, err := r.RepairLink(li)
			if errors.Is(err, ErrNoPath) {
				// Atomic failure: link back up, nothing moved.
				if !tp.LinkAlive(li) {
					t.Fatalf("event %d: failed repair left link %d dead", ev, li)
				}
				for fi := range flows {
					cur := r.Tree(model.FlowID(fi))
					if !sameSlice(before[fi].Links, cur.Links) || !sameSlice(before[fi].Nodes, cur.Nodes) {
						t.Fatalf("event %d: failed repair mutated flow %d tree", ev, fi)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("event %d: repair link %d: %v", ev, li, err)
			}
			if st.Affected != len(indexed) {
				t.Fatalf("event %d: repair affected %d flows, reverse index had %d", ev, st.Affected, len(indexed))
			}
			touched := make(map[int]bool, len(indexed))
			for _, fi := range indexed {
				touched[int(fi)] = true
			}
			for fi := range flows {
				cur := r.Tree(model.FlowID(fi))
				if touched[fi] {
					continue
				}
				if !sameSlice(before[fi].Links, cur.Links) || !sameSlice(before[fi].Nodes, cur.Nodes) {
					t.Fatalf("event %d: unaffected flow %d was re-routed (spurious)", ev, fi)
				}
			}
			dead = append(dead, li)
		}
		checkRouterInvariants(t, r)
		if err := ix.RefreshRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatalf("event %d: RefreshRouting: %v", ev, err)
		}
		expectIndexEqual(t, r.Problem(), ix)
	}
}

// TestRouterRepairNodeProperty exercises node kills and restores.
func TestRouterRepairNodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tp, caps, flows := randomRouterWorkload(rng, 50, 6, 2)
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	ix := model.NewIndex(r.Problem())

	// Nodes hosting a source or subscriber are not repairable; collect the
	// rest as candidates.
	anchored := make([]bool, tp.NodeCount())
	for _, fs := range flows {
		anchored[fs.Source] = true
		for _, cs := range fs.Classes {
			anchored[cs.Node] = true
		}
	}
	var deadNode model.NodeID = -1
	events := 0
	for ev := 0; ev < 200 && events < 30; ev++ {
		if deadNode >= 0 {
			st, err := r.RestoreNode(deadNode)
			if err != nil {
				t.Fatalf("restore node %d: %v", deadNode, err)
			}
			if st.Kind != "node-restore" {
				t.Fatalf("stats kind = %q", st.Kind)
			}
			deadNode = -1
		} else {
			b := model.NodeID(rng.Intn(tp.NodeCount()))
			if anchored[b] || !tp.NodeAlive(b) {
				continue
			}
			indexed := len(r.FlowsThroughNode(b))
			st, err := r.RepairNode(b)
			if errors.Is(err, ErrNoPath) {
				if !tp.NodeAlive(b) {
					t.Fatalf("failed node repair left node %d dead", b)
				}
				continue
			}
			if err != nil {
				t.Fatalf("repair node %d: %v", b, err)
			}
			if st.Affected != indexed {
				t.Fatalf("node repair affected %d, index had %d", st.Affected, indexed)
			}
			deadNode = b
		}
		events++
		checkRouterInvariants(t, r)
		if err := ix.RefreshRouting(r.Problem(), r.TakeDelta()); err != nil {
			t.Fatalf("RefreshRouting: %v", err)
		}
		expectIndexEqual(t, r.Problem(), ix)
	}
	if events < 10 {
		t.Fatalf("only %d churn events exercised", events)
	}
}

// TestBuildTreeErrNoPathAfterNodeRemoval covers the satellite error path:
// removing a relay node disconnects a subscriber, and buildTree reports
// which subscriber with ErrNoPath.
func TestBuildTreeErrNoPathAfterNodeRemoval(t *testing.T) {
	tp := Line(4, 1000)
	if err := tp.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	_, err := buildTree(tp, 0, []model.NodeID{3})
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if !strings.Contains(err.Error(), "subscriber 3") {
		t.Fatalf("error %q does not name the unreachable subscriber", err)
	}

	// Build surfaces it with the flow context.
	flows := []FlowSpec{{
		Name: "f0", Source: 0, RateMin: 1, RateMax: 10, LinkCost: 1, NodeCost: 1,
		Classes: []ClassSpec{{Name: "c0", Node: 3, MaxConsumers: 5, CostPerConsumer: 1, Utility: utility.NewLog(1)}},
	}}
	_, err = Build(tp, 1000, flows)
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("Build err = %v, want ErrNoPath", err)
	}
	if !strings.Contains(err.Error(), "flow 0 (f0)") || !strings.Contains(err.Error(), "subscriber 3") {
		t.Fatalf("Build error %q lacks flow/subscriber context", err)
	}
}

// TestRepairNodeRejectsAnchors: a node hosting a flow source or a
// subscriber cannot be repaired away; the failure is atomic.
func TestRepairNodeRejectsAnchors(t *testing.T) {
	tp := Line(4, 1000)
	caps := uniformCaps(4, 1000)
	flows := buildSpec()
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RepairNode(0); err == nil || !strings.Contains(err.Error(), "sourced there") {
		t.Fatalf("repairing source node: err = %v", err)
	}
	if !tp.NodeAlive(0) {
		t.Fatal("failed repair left source node dead")
	}
	if _, err := r.RepairNode(2); err == nil || !strings.Contains(err.Error(), "subscribes there") {
		t.Fatalf("repairing subscriber node: err = %v", err)
	}
	if !tp.NodeAlive(2) {
		t.Fatal("failed repair left subscriber node dead")
	}
}

// retraceAll is the restore path RestoreLink/RestoreNode used before the
// candidate filter — re-trace every flow, keep what comes back identical —
// kept as the oracle the filter is checked against.
func (r *Router) retraceAll(st *RepairStats) error {
	all := make([]int32, len(r.flows))
	for fi := range all {
		all[fi] = int32(fi)
	}
	return r.rerouteAffected(st, all)
}

// fullSweep returns every node's hop distance over the alive topology: from
// root along the links, or with reverse set toward root against them. A
// dead root reaches nothing. It is the unbounded sweep restores ran before
// the two-sided search, kept as the reference the search is checked against.
func fullSweep(t *Topology, root model.NodeID, reverse bool) []int32 {
	dist, adj := make([]int32, t.nodeCount), t.out
	if reverse {
		adj = t.in
	}
	for b := range dist {
		dist[b] = unreachable
	}
	if !t.NodeAlive(root) {
		return dist
	}
	dist[root] = 0
	q := []int32{int32(root)}
	for head := 0; head < len(q); head++ {
		b := q[head]
		for _, li := range adj[b] {
			next := t.links[li].To
			if reverse {
				next = t.links[li].From
			}
			if dist[next] != unreachable || !t.NodeAlive(next) || (t.deadLink != nil && t.deadLink[li]) {
				continue
			}
			dist[next] = dist[b] + 1
			q = append(q, int32(next))
		}
	}
	return dist
}

// treeDepths returns each class's hop depth in its flow's current tree,
// found by walking the tree from the class's node to the source.
func treeDepths(r *Router) []int32 {
	depths := make([]int32, len(r.depth))
	up := make(map[model.NodeID]int)
	for fi, fs := range r.flows {
		clear(up)
		for _, li := range r.trees[fi].Links {
			up[r.topo.links[li].To] = li
		}
		off := r.classOff[fi]
		for k, cs := range fs.Classes {
			for at := cs.Node; at != fs.Source; at = r.topo.links[up[at]].From {
				depths[off+k]++
			}
		}
	}
	return depths
}

// fullSweepCandidates is the restore filter as it ran before the two-sided
// search: both sweeps over the whole topology, each class's depth walked
// off its tree, every flow tested. It returns the candidates, ascending,
// and how many nodes the two sweeps reached.
func fullSweepCandidates(r *Router, in, out model.NodeID, hop int32) (cands []int32, visited int) {
	toIn, fromOut := fullSweep(r.topo, in, true), fullSweep(r.topo, out, false)
	for b := range toIn {
		if toIn[b] != unreachable {
			visited++
		}
		if fromOut[b] != unreachable {
			visited++
		}
	}
	depths := treeDepths(r)
	for fi, fs := range r.flows {
		reach := toIn[fs.Source] + hop
		if reach >= unreachable {
			continue
		}
		off := r.classOff[fi]
		for k, cs := range fs.Classes {
			if reach+fromOut[cs.Node] <= depths[off+k] {
				cands = append(cands, int32(fi))
				break
			}
		}
	}
	return cands, visited
}

// healOracle records, for the latest heal on the oracle Router, the
// candidates that the bounded search (which the filtering Router runs
// inside RestoreLink/RestoreNode) and the full sweep pick on the same
// healed state, and how many nodes each visited.
type healOracle struct {
	bounded, full               []int32
	boundedVisited, fullVisited int
}

// heal records both candidate lists for an element r has just restored,
// then re-traces every flow.
func (h *healOracle) heal(r *Router, st *RepairStats, in, out model.NodeID, hop int32) error {
	h.bounded = r.restoreCandidates(&RepairStats{}, in, out, hop)
	h.boundedVisited = len(r.toIn.queue) + len(r.fromOut.queue)
	h.full, h.fullVisited = fullSweepCandidates(r, in, out, hop)
	return r.retraceAll(st)
}

// healLink / healNode restore an element on r: through the candidate
// filter, or with h set through the full sweep.
func healLink(r *Router, li int, h *healOracle) (RepairStats, error) {
	if h == nil {
		return r.RestoreLink(li)
	}
	st := RepairStats{Kind: "link-restore", Element: li}
	if err := r.topo.RestoreLink(li); err != nil {
		return st, err
	}
	l := r.topo.links[li]
	return st, h.heal(r, &st, l.From, l.To, 1)
}

func healNode(r *Router, b model.NodeID, h *healOracle) (RepairStats, error) {
	if h == nil {
		return r.RestoreNode(b)
	}
	st := RepairStats{Kind: "node-restore", Element: int(b)}
	if err := r.topo.RestoreNode(b); err != nil {
		return st, err
	}
	return st, h.heal(r, &st, b, b, 0)
}

// restoreWorkload builds one differential-test instance from rng: the
// named topology, optionally salted with one-way and parallel links, and
// flows whose sources come from a small pool so several share one.
func restoreWorkload(rng *rand.Rand, shape string, nodes, nFlows int, salt bool) (*Topology, []float64, []FlowSpec) {
	var tp *Topology
	switch shape {
	case "linkfail":
		return linkFailureShape(rng)
	case "line":
		tp = Line(nodes, 1e6)
	case "ring":
		tp = Ring(nodes, 1e6)
	case "star":
		tp = Star(nodes, 1e6)
	default:
		tp = RandomTopologyHetero(rng, nodes, 2, 1e5, 1e6)
	}
	if salt {
		for k := 0; k < nodes; k++ {
			a, b := model.NodeID(rng.Intn(nodes)), model.NodeID(rng.Intn(nodes))
			if a == b {
				continue
			}
			_, _ = tp.AddLink(a, b, 1e6) // one-way shortcut
			if k%3 == 0 {
				_, _ = tp.AddLink(a, b, 1e6) // and its parallel twin
			}
		}
	}
	pool := make([]model.NodeID, 1+nFlows/2)
	for k := range pool {
		pool[k] = model.NodeID(rng.Intn(nodes))
	}
	flows := make([]FlowSpec, nFlows)
	for fi := range flows {
		fs := FlowSpec{
			Name: "f", Source: pool[rng.Intn(len(pool))],
			RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2,
		}
		for s := 0; s < 3; s++ {
			fs.Classes = append(fs.Classes, ClassSpec{
				Name: "c", Node: model.NodeID(rng.Intn(nodes)),
				MaxConsumers: 10, CostPerConsumer: 5, Utility: utility.NewLog(5),
			})
		}
		flows[fi] = fs
	}
	return tp, uniformCaps(nodes, 1e6), flows
}

// TestRestoreFilterMatchesFullSweep is the differential proof of the
// restore candidate filter: two Routers over identical inputs take the
// same seeded stream of overlapping link and node failures and of heals
// in an order unrelated to the failures'; one heals through
// RestoreLink/RestoreNode, the other through the full sweep. After every
// event their trees, slice sharing, deltas and reverse indexes must agree
// exactly, the filtering Router's stored depths must match its trees, and
// on every heal the bounded search must pick the candidates the full sweep
// picks. The small shapes are swept to their full radius anyway; the
// benchmark's own 10,000-node shape, with failures drawn from the trees so
// that heals move flows, is where the search stops early.
func TestRestoreFilterMatchesFullSweep(t *testing.T) {
	cases := []struct {
		shape         string
		nodes, nFlows int
		salt          bool
		seeds, events int
		treeLinks     bool // fail links the trees use
	}{
		{"line", 14, 6, false, 4, 250, false},
		{"line", 14, 6, true, 4, 250, false},
		{"ring", 16, 8, false, 4, 250, false},
		{"ring", 16, 8, true, 4, 250, false},
		{"star", 12, 6, false, 4, 250, false},
		{"star", 12, 6, true, 4, 250, false},
		{"random", 40, 12, false, 4, 250, false},
		{"random", 40, 12, true, 4, 250, false},
		{"random", 150, 30, true, 4, 250, false},
		{"linkfail", 10_000, 200, false, 1, 120, true},
	}
	var heals, healCands, healFlows, healRerouted, deadEndpointHeals int
	for ci, c := range cases {
		var boundedVisited, fullVisited int
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			var rs [2]*Router // [0] heals through the filter, [1] is the oracle
			for k := range rs {
				tp, caps, flows := restoreWorkload(rand.New(rand.NewSource(100*int64(ci)+seed)), c.shape, c.nodes, c.nFlows, c.salt)
				r, err := NewRouter(tp, caps, flows)
				if err != nil {
					t.Fatalf("%s seed %d: NewRouter: %v", c.shape, seed, err)
				}
				rs[k] = r
			}
			rng := rand.New(rand.NewSource(seed))
			tp := rs[0].topo
			var oracle healOracle
			var deadLinks []int
			var deadNodes []model.NodeID
			for ev := 0; ev < c.events; ev++ {
				var before [2][]Tree
				for k, r := range rs {
					before[k] = slices.Clone(r.trees)
				}
				// One event, applied to both Routers; h is nil for the filter.
				var apply func(r *Router, h *healOracle) (RepairStats, error)
				heal := false
				failed := func() {} // records the element once both Routers took the failure
				switch op := rng.Intn(10); {
				case op < 3: // fail a link, sometimes one beside a dead node
					li := rng.Intn(tp.LinkCount())
					if c.treeLinks {
						if links := rs[0].trees[rng.Intn(len(rs[0].trees))].Links; len(links) > 0 {
							li = links[rng.Intn(len(links))]
						}
					}
					if len(deadNodes) > 0 && rng.Intn(2) == 0 {
						b := deadNodes[rng.Intn(len(deadNodes))]
						if adj := append(slices.Clone(tp.out[b]), tp.in[b]...); len(adj) > 0 {
							li = int(adj[rng.Intn(len(adj))])
						}
					}
					apply = func(r *Router, _ *healOracle) (RepairStats, error) { return r.RepairLink(li) }
					failed = func() { deadLinks = append(deadLinks, li) }
				case op < 5: // fail a node
					b := model.NodeID(rng.Intn(tp.NodeCount()))
					apply = func(r *Router, _ *healOracle) (RepairStats, error) { return r.RepairNode(b) }
					failed = func() { deadNodes = append(deadNodes, b) }
				case op < 8 && len(deadLinks) > 0: // heal a link, any order
					k := rng.Intn(len(deadLinks))
					li := deadLinks[k]
					deadLinks = slices.Delete(deadLinks, k, k+1)
					apply = func(r *Router, h *healOracle) (RepairStats, error) { return healLink(r, li, h) }
					heal = true
					if l := tp.links[li]; !tp.NodeAlive(l.From) || !tp.NodeAlive(l.To) {
						deadEndpointHeals++
					}
				case len(deadNodes) > 0: // heal a node
					k := rng.Intn(len(deadNodes))
					b := deadNodes[k]
					deadNodes = slices.Delete(deadNodes, k, k+1)
					apply = func(r *Router, h *healOracle) (RepairStats, error) { return healNode(r, b, h) }
					heal = true
				default:
					continue
				}
				st, err := apply(rs[0], nil)
				ost, oerr := apply(rs[1], &oracle)
				if (err == nil) != (oerr == nil) {
					t.Fatalf("%s seed %d event %d: filter err %v, oracle err %v", c.shape, seed, ev, err, oerr)
				}
				if err != nil {
					// Only a failure can be refused (already dead, an anchor, a
					// bridge), and a refusal changes nothing.
					if heal {
						t.Fatalf("%s seed %d event %d: heal refused: %v", c.shape, seed, ev, err)
					}
					for k, r := range rs {
						for fi := range r.trees {
							if !sameSlice(before[k][fi].Links, r.trees[fi].Links) {
								t.Fatalf("%s seed %d event %d: refused event moved flow %d", c.shape, seed, ev, fi)
							}
						}
					}
					continue
				}
				failed()
				if heal {
					heals++
					healCands += st.Affected
					healFlows += ost.Affected
					healRerouted += st.Rerouted
					boundedVisited += oracle.boundedVisited
					fullVisited += oracle.fullVisited
					if !slices.Equal(oracle.bounded, oracle.full) || st.Affected != len(oracle.full) {
						t.Fatalf("%s seed %d event %d (%s %d): bounded search picked %v (filter affected %d), full sweep %v",
							c.shape, seed, ev, st.Kind, st.Element, oracle.bounded, st.Affected, oracle.full)
					}
					if st.Rerouted != ost.Rerouted || st.Rerouted > st.Affected || st.Affected > c.nFlows || st.BFSRuns > st.Affected+2 {
						t.Fatalf("%s seed %d event %d: heal stats %+v vs oracle %+v", c.shape, seed, ev, st, ost)
					}
				}
				for j, d := range treeDepths(rs[0]) {
					if d >= 0 && rs[0].depth[j] != d {
						t.Fatalf("%s seed %d event %d: class %d stored depth %d, tree depth %d", c.shape, seed, ev, j, rs[0].depth[j], d)
					}
				}
				for fi := range rs[0].trees {
					got, want := rs[0].trees[fi], rs[1].trees[fi]
					if !got.equal(want) {
						t.Fatalf("%s seed %d event %d (%s %d): flow %d tree\n got %+v\nwant %+v", c.shape, seed, ev, st.Kind, st.Element, fi, got, want)
					}
					kept := sameSlice(before[0][fi].Links, got.Links) && sameSlice(before[0][fi].Nodes, got.Nodes)
					okept := sameSlice(before[1][fi].Links, want.Links) && sameSlice(before[1][fi].Nodes, want.Nodes)
					if kept != okept {
						t.Fatalf("%s seed %d event %d: flow %d slices kept=%v, oracle kept=%v", c.shape, seed, ev, fi, kept, okept)
					}
				}
				d, od := rs[0].TakeDelta(), rs[1].TakeDelta()
				if !slices.Equal(d.Flows, od.Flows) || !slices.Equal(d.Nodes, od.Nodes) || !slices.Equal(d.Links, od.Links) {
					t.Fatalf("%s seed %d event %d: delta %+v, oracle %+v", c.shape, seed, ev, d, od)
				}
				for li := range rs[0].flowsByLink {
					if !slices.Equal(rs[0].flowsByLink[li], rs[1].flowsByLink[li]) {
						t.Fatalf("%s seed %d event %d: link %d index %v, oracle %v", c.shape, seed, ev, li, rs[0].flowsByLink[li], rs[1].flowsByLink[li])
					}
				}
				for b := range rs[0].flowsByNode {
					if !slices.Equal(rs[0].flowsByNode[b], rs[1].flowsByNode[b]) {
						t.Fatalf("%s seed %d event %d: node %d index %v, oracle %v", c.shape, seed, ev, b, rs[0].flowsByNode[b], rs[1].flowsByNode[b])
					}
				}
			}
		}
		if c.treeLinks {
			t.Logf("%s: the bounded search visited %d nodes, the full sweep %d", c.shape, boundedVisited, fullVisited)
			if boundedVisited >= fullVisited {
				t.Fatalf("%s: the bounded search never stopped early", c.shape)
			}
		}
	}
	t.Logf("%d heals: %d candidates of %d flow re-traces the sweep made, %d rerouted, %d heals beside a dead endpoint",
		heals, healCands, healFlows, healRerouted, deadEndpointHeals)
	if healRerouted == 0 || deadEndpointHeals == 0 || healCands >= healFlows {
		t.Fatal("streams never exercised a rerouting heal, a dead-endpoint heal, or the filter skipped nothing")
	}
}

// TestRestoreSearchMatchesFullSweepEverywhere holds the bounded search to
// the full sweep for every element of small topologies, not just the ones
// a stream happens to heal: with some links and nodes failed, every link
// u->v (hop 1) and every node (hop 0) is taken as the healed element, and
// both must pick the same candidates. A line doubled by parallel twins
// makes every heal of a twin a tie, where a stop one level early loses the
// candidate.
func TestRestoreSearchMatchesFullSweepEverywhere(t *testing.T) {
	type instance struct {
		tp    *Topology
		caps  []float64
		flows []FlowSpec
	}
	var instances []instance
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		twins := Line(12, 1e6)
		for _, l := range twins.Links() {
			_, _ = twins.AddLink(l.From, l.To, 1e6)
		}
		flows := make([]FlowSpec, 4)
		for fi := range flows {
			flows[fi] = FlowSpec{Name: "f", Source: model.NodeID(rng.Intn(12)), RateMin: 1, RateMax: 100, LinkCost: 1, NodeCost: 2,
				Classes: []ClassSpec{{Name: "c", Node: model.NodeID(rng.Intn(12)), MaxConsumers: 10, CostPerConsumer: 5, Utility: utility.NewLog(5)}}}
		}
		instances = append(instances, instance{twins, uniformCaps(12, 1e6), flows})
		for _, shape := range []string{"ring", "star", "random"} {
			tp, caps, flows := restoreWorkload(rng, shape, 30, 8, true)
			instances = append(instances, instance{tp, caps, flows})
		}
	}
	compared, cands := 0, 0
	for i, in := range instances {
		r, err := NewRouter(in.tp, in.caps, in.flows)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for k := 0; k < 4; k++ { // refusals (anchors, bridges) are fine
			_, _ = r.RepairLink(rng.Intn(in.tp.LinkCount()))
			_, _ = r.RepairNode(model.NodeID(rng.Intn(in.tp.NodeCount())))
		}
		check := func(u, v model.NodeID, hop int32) {
			got := r.restoreCandidates(&RepairStats{}, u, v, hop)
			want, _ := fullSweepCandidates(r, u, v, hop)
			if !slices.Equal(got, want) {
				t.Fatalf("instance %d: heal %d->%d (hop %d): bounded search %v, full sweep %v", i, u, v, hop, got, want)
			}
			compared++
			cands += len(want)
		}
		for _, l := range in.tp.links {
			check(l.From, l.To, 1)
		}
		for b := 0; b < in.tp.NodeCount(); b++ {
			check(model.NodeID(b), model.NodeID(b), 0)
		}
	}
	if cands == 0 {
		t.Fatalf("%d heals compared, none with a candidate", compared)
	}
}

// TestRestoreSweepsLeaveBFSCacheAlone: a restore's search shares a Router
// with the cached canonical BFS, which is a resumable prefix whose queue is
// live state. A restore between two traces from the same source must
// neither overwrite nor advance that prefix: the second trace resumes it
// without a new BFS and still finds the from-scratch tree. The same holds
// for a trace's own search from a subscriber past the prefix, whether it
// meets the prefix or drains into ErrNoPath.
func TestRestoreSweepsLeaveBFSCacheAlone(t *testing.T) {
	tp := Ring(16, 1e6)
	class := func(b model.NodeID) ClassSpec {
		return ClassSpec{Name: "c", Node: b, MaxConsumers: 5, CostPerConsumer: 1, Utility: utility.NewLog(1)}
	}
	flows := []FlowSpec{
		{Name: "deep", Source: 4, RateMin: 1, RateMax: 10, LinkCost: 1, NodeCost: 1, Classes: []ClassSpec{class(12)}},
		{Name: "near", Source: 0, RateMin: 1, RateMax: 10, LinkCost: 1, NodeCost: 1, Classes: []ClassSpec{class(1)}},
	}
	r, err := NewRouter(tp, uniformCaps(16, 1e6), flows)
	if err != nil {
		t.Fatal(err)
	}
	// Routing the near flow last left its BFS half-expanded: node 1 is one
	// hop from the source, so the prefix stopped at that level.
	sc := r.sc
	if !sc.cached(tp, 0) || sc.head >= len(sc.queue) {
		t.Fatalf("no half-expanded BFS cached: source %d, head %d of %d", sc.bfsSrc, sc.head, len(sc.queue))
	}
	before := prefixOf(sc)

	// A node heal at 8, opposite the source: both sides of the search grow
	// (the deep flow's path 4 -> 8 -> 12 ties its tree, so it is a candidate).
	if cands := r.restoreCandidates(&RepairStats{}, 8, 8, 0); !slices.Equal(cands, []int32{0}) {
		t.Fatalf("candidates %v, want [0]", cands)
	}
	if r.toIn.k == 0 || r.fromOut.k == 0 {
		t.Fatalf("the search did not grow: radii %d and %d", r.toIn.k, r.fromOut.k)
	}
	if !sc.cached(tp, 0) || !prefixOf(sc).equal(before) {
		t.Fatalf("the search disturbed the cached BFS:\n got %+v\nwant %+v", prefixOf(sc), before)
	}
	// The next trace from the same source resumes the prefix to reach the
	// far subscribers, and finds what a fresh BFS finds.
	subs := []model.NodeID{1, 8, 12}
	want, err := buildTree(tp, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tp.BuildTreeInto(sc, 0, subs, r.trees[1])
	if err != nil || sc.epoch != before.epoch || !got.equal(want) {
		t.Fatalf("resumed trace: err=%v bfs epoch %d -> %d, tree %+v want %+v", err, before.epoch, sc.epoch, got, want)
	}

	// A trace's own search past the prefix leaves it alone too. Node 0 fans
	// out to 1..8 and a chain 1 -> 9 -> 10 -> 11 leads on, so once the
	// prefix holds level 1 the subscriber's side is always the smaller one:
	// 11 is met at node 1 and traced by the restricted pass alone. Node 12
	// is entered only from 13, which nothing enters, so its side drains.
	fan := NewTopology(14)
	for b := model.NodeID(1); b <= 8; b++ {
		_, _ = fan.AddLink(0, b, 1)
	}
	for _, l := range [][2]model.NodeID{{1, 9}, {9, 10}, {10, 11}, {13, 12}} {
		_, _ = fan.AddLink(l[0], l[1], 1)
	}
	sc = NewScratch(fan)
	if _, _, err := fan.BuildTreeInto(sc, 0, []model.NodeID{1}, Tree{Source: -1}); err != nil {
		t.Fatal(err)
	}
	before = prefixOf(sc)
	if before.lvl != 1 || len(before.queue) != 9 {
		t.Fatalf("fan prefix at level %d with %d nodes, want level 1 with 9", before.lvl, len(before.queue))
	}
	want, err = buildTree(fan, 0, []model.NodeID{11})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = fan.BuildTreeInto(sc, 0, []model.NodeID{11}, Tree{Source: -1})
	if err != nil || !got.equal(want) || sc.depth[0] != 4 || !prefixOf(sc).equal(before) {
		t.Fatalf("trace past the prefix: err=%v tree %+v want %+v, depth %v, prefix %+v want %+v", err, got, want, sc.depth, prefixOf(sc), before)
	}
	if _, _, err := fan.BuildTreeInto(sc, 0, []model.NodeID{12}, Tree{Source: -1}); !errors.Is(err, ErrNoPath) || !prefixOf(sc).equal(before) {
		t.Fatalf("drained subscriber side: err=%v, prefix %+v want %+v", err, prefixOf(sc), before)
	}
	subs = []model.NodeID{11, 5, 9, 0}
	if want, err = buildTree(fan, 0, subs); err != nil {
		t.Fatal(err)
	}
	if got, _, err = fan.BuildTreeInto(sc, 0, subs, Tree{Source: -1}); err != nil || sc.epoch != before.epoch || !got.equal(want) {
		t.Fatalf("resumed fan trace: err=%v bfs epoch %d -> %d, tree %+v want %+v", err, before.epoch, sc.epoch, got, want)
	}

	// Directionality and dead elements: on a one-way line 0->1->2 node 2 is
	// reachable from 0 but not toward it, and a dead relay or link cuts it.
	ow := NewTopology(3)
	_, _ = ow.AddLink(0, 1, 1)
	_, _ = ow.AddLink(1, 2, 1)
	var s levelSweep
	dist := func(root, b model.NodeID, reverse bool) int32 {
		s.start(ow, root, reverse)
		for !s.drained() {
			s.grow(ow)
		}
		if s.found(b) {
			return s.dist[b]
		}
		return s.beyond()
	}
	if d := dist(0, 2, false); d != 2 {
		t.Fatalf("forward distance 0->2 = %d, want 2", d)
	}
	if d := dist(0, 2, true); d != unreachable {
		t.Fatalf("distance 2->0 = %d, want unreachable", d)
	}
	if d := dist(2, 0, true); d != 2 {
		t.Fatalf("distance 0->2 by reverse sweep = %d, want 2", d)
	}
	_ = ow.RemoveNode(1)
	if d := dist(0, 2, false); d != unreachable {
		t.Fatalf("distance past a dead relay = %d, want unreachable", d)
	}
	if d := dist(1, 1, false); d != unreachable {
		t.Fatalf("a dead root reached itself: %d", d)
	}
	_ = ow.RestoreNode(1)
	_ = ow.RemoveLink(1)
	if d := dist(0, 2, false); d != unreachable {
		t.Fatalf("distance over a dead link = %d, want unreachable", d)
	}
	if d := dist(2, 1, true); d != unreachable {
		t.Fatalf("reverse distance over a dead link = %d, want unreachable", d)
	}
}

// fullBFS is the canonical BFS written out plainly and run to exhaustion:
// prev[b] is the link that first reached b (-1 at src, -2 where nothing
// reached), dist[b] its hop distance (-1 where nothing reached) and order
// the nodes in the order the BFS reached them.
func fullBFS(t *Topology, src model.NodeID) (prev, dist []int32, order []model.NodeID) {
	prev, dist = make([]int32, t.nodeCount), make([]int32, t.nodeCount)
	for b := range prev {
		prev[b], dist[b] = -2, -1
	}
	prev[src], dist[src] = -1, 0
	order = []model.NodeID{src}
	for head := 0; head < len(order); head++ {
		at := order[head]
		for _, li := range t.out[at] {
			to := t.links[li].To
			if prev[to] != -2 || !t.LinkAlive(int(li)) {
				continue
			}
			prev[to], dist[to] = li, dist[at]+1
			order = append(order, to)
		}
	}
	return prev, dist, order
}

// prefix is a copy of the BFS prefix a Scratch caches: what a search past
// it must leave as it was.
type prefix struct {
	epoch, lvl  int32
	head        int
	queue, prev []int32
}

func prefixOf(sc *Scratch) prefix {
	p := prefix{epoch: sc.epoch, lvl: sc.lvl, head: sc.head, queue: slices.Clone(sc.queue)}
	for _, b := range sc.queue {
		p.prev = append(p.prev, sc.prev[b])
	}
	return p
}

func (p prefix) equal(o prefix) bool {
	return p.epoch == o.epoch && p.lvl == o.lvl && p.head == o.head &&
		slices.Equal(p.queue, o.queue) && slices.Equal(p.prev, o.prev)
}

// checkPrefix holds the prefix sc caches to the full BFS from its source:
// the queue is the full BFS order cut after level lvl, queue[head:] is
// exactly level lvl, every queued node has the full BFS's parent and
// distance, and no other node is marked seen.
func checkPrefix(t *testing.T, sc *Scratch, prev, dist []int32, order []model.NodeID) {
	t.Helper()
	n, head := 0, 0
	for _, b := range order {
		if dist[b] <= sc.lvl {
			n++
		}
		if dist[b] < sc.lvl {
			head++
		}
	}
	if len(sc.queue) != n || sc.head != head {
		t.Fatalf("prefix at level %d: %d queued, head %d; the full BFS has %d within it, %d before it", sc.lvl, len(sc.queue), sc.head, n, head)
	}
	seen := 0
	for _, b := range sc.seen {
		if b == sc.epoch {
			seen++
		}
	}
	if seen != n {
		t.Fatalf("prefix of %d nodes marks %d seen", n, seen)
	}
	for k, b := range sc.queue {
		if b != int32(order[k]) || sc.prev[b] != prev[b] || sc.dist[b] != dist[b] {
			t.Fatalf("prefix position %d: node %d prev %d dist %d, full BFS node %d prev %d dist %d",
				k, b, sc.prev[b], sc.dist[b], order[k], prev[order[k]], dist[order[k]])
		}
	}
}

// TestLazyBFSMatchesFullBFS: a trace finds the path and depth a traversal
// run to exhaustion gives, and leaves behind a prefix that is that
// traversal cut at a level, over random topologies with one-way, dead and
// parallel links and dead nodes. A same-source resume starts no new BFS, a
// topology mutation does, and an unreachable target is reported as
// ErrNoPath.
func TestLazyBFSMatchesFullBFS(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		tp := RandomTopologyHetero(rng, n, 1, 1, 10)
		for k := 0; k < n/2; k++ {
			_, _ = tp.AddLink(model.NodeID(rng.Intn(n)), model.NodeID(rng.Intn(n)), 1)
		}
		for k := 0; k < n/3; k++ {
			_ = tp.RemoveLink(rng.Intn(tp.LinkCount()))
		}
		for k := 0; k < n/8; k++ {
			_ = tp.RemoveNode(model.NodeID(rng.Intn(n)))
		}
		sc := NewScratch(tp)
		for round := 0; round < 12; round++ {
			src := model.NodeID(rng.Intn(n))
			if !tp.NodeAlive(src) {
				continue
			}
			prev, dist, order := fullBFS(tp, src)
			sc.bfs(tp, src)
			runs := sc.epoch
			for q := 0; q < 6; q++ {
				b := model.NodeID(rng.Intn(n))
				d, ok := sc.trace(tp, b)
				if ok != (dist[b] >= 0) || ok && d != dist[b] {
					t.Fatalf("seed %d: trace(%d) from %d = %d, %v; full BFS distance %d", seed, b, src, d, ok, dist[b])
				}
				for at := b; ok && at != src; {
					li := sc.parent(at)
					if li != prev[at] {
						t.Fatalf("seed %d: from %d node %d parent %d, full BFS %d", seed, src, at, li, prev[at])
					}
					at = tp.links[li].From
				}
				checkPrefix(t, sc, prev, dist, order)
				sc.bfs(tp, src)
				if sc.epoch != runs {
					t.Fatalf("seed %d: a same-source resume started a new BFS", seed)
				}
			}
			li := rng.Intn(tp.LinkCount())
			if tp.RemoveLink(li) != nil {
				_ = tp.RestoreLink(li)
			}
			sc.bfs(tp, src)
			if sc.epoch == runs {
				t.Fatalf("seed %d: a topology mutation left the BFS cached", seed)
			}
		}
	}

	// An unreachable subscriber gives ErrNoPath; here the source's side
	// drains first, so the prefix is all the source reaches.
	tp := Line(5, 1)
	_ = tp.RemoveNode(3)
	sc := NewScratch(tp)
	if _, _, err := tp.BuildTreeInto(sc, 0, []model.NodeID{1, 4}, Tree{Source: -1}); !errors.Is(err, ErrNoPath) {
		t.Fatalf("BuildTreeInto past a dead relay: err = %v, want ErrNoPath", err)
	}
	if sc.head != len(sc.queue) || len(sc.queue) != 3 {
		t.Fatalf("unreachable subscriber: %d of %d queued nodes expanded, want all 3", sc.head, len(sc.queue))
	}
}

// adjacencyLinks returns, sorted, every link ID an adjacency table files.
func adjacencyLinks(adj [][]int32) []int32 {
	var ids []int32
	for _, row := range adj {
		ids = append(ids, row...)
	}
	slices.Sort(ids)
	return ids
}

// TestReverseAdjacencyInStep: forward and reverse adjacency describe one
// link set — every link once in out[From] and once in in[To] — through
// interleaved AddLink / Remove* / Restore*.
func TestReverseAdjacencyInStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tp := NewTopology(9)
	check := func() {
		t.Helper()
		all := make([]int32, tp.LinkCount())
		for li := range all {
			all[li] = int32(li)
		}
		if out, in := adjacencyLinks(tp.out), adjacencyLinks(tp.in); !slices.Equal(out, all) || !slices.Equal(in, all) {
			t.Fatalf("adjacency out of step with %d links:\nout %v\n in %v", len(all), out, in)
		}
		for li, l := range tp.links {
			if !slices.Contains(tp.out[l.From], int32(li)) || !slices.Contains(tp.in[l.To], int32(li)) {
				t.Fatalf("link %d (%d->%d) filed under the wrong node", li, l.From, l.To)
			}
		}
	}
	for step := 0; step < 200; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			_, _ = tp.AddLink(model.NodeID(rng.Intn(9)), model.NodeID(rng.Intn(9)), 1)
		case 2:
			if n := tp.LinkCount(); n > 0 {
				if li := rng.Intn(n); tp.RemoveLink(li) != nil {
					_ = tp.RestoreLink(li)
				}
			}
		default:
			if b := model.NodeID(rng.Intn(9)); tp.RemoveNode(b) != nil {
				_ = tp.RestoreNode(b)
			}
		}
		check()
	}
	if tp.LinkCount() < 20 {
		t.Fatalf("only %d links added", tp.LinkCount())
	}
}

// TestRouterRejectsGrownTopology: AddLink under a live Router grows the
// graph past the Router's per-link state; every repair and restore must
// then refuse with ErrBadBuild and leave topology and routing alone
// (routing over the new link used to index out of range in commitTree).
func TestRouterRejectsGrownTopology(t *testing.T) {
	tp := Ring(4, 1000)
	r, err := NewRouter(tp, uniformCaps(4, 1000), buildSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RepairLink(0); err != nil { // something to heal later
		t.Fatal(err)
	}
	r.TakeDelta()
	before := slices.Clone(r.trees)
	// A shortcut the next repair would route over.
	if _, err := tp.AddLink(0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	epoch := tp.epoch
	calls := map[string]func() error{
		"RepairLink":  func() error { _, err := r.RepairLink(2); return err },
		"RepairNode":  func() error { _, err := r.RepairNode(1); return err },
		"RestoreLink": func() error { _, err := r.RestoreLink(0); return err },
		"RestoreNode": func() error { _, err := r.RestoreNode(1); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrBadBuild) {
			t.Fatalf("%s on a grown topology: err = %v, want ErrBadBuild", name, err)
		}
	}
	if tp.epoch != epoch || tp.LinkAlive(0) || !tp.LinkAlive(2) || !tp.NodeAlive(1) {
		t.Fatal("a refused call mutated the topology")
	}
	for fi := range before {
		if !sameSlice(before[fi].Links, r.trees[fi].Links) || !sameSlice(before[fi].Nodes, r.trees[fi].Nodes) {
			t.Fatalf("a refused call re-routed flow %d", fi)
		}
	}
	if d := r.TakeDelta(); len(d.Flows)+len(d.Nodes)+len(d.Links) != 0 {
		t.Fatalf("a refused call left a delta %+v", d)
	}
}

// TestCostMapsFollowTheTrees: an element's cost map exists exactly while a
// flow crosses it. On the link_failure shape, after NewRouter and after
// every event of a seeded fail/heal sequence, FlowCost is nil on every node
// and link no tree crosses, and elsewhere its keys are exactly the flows
// FlowsThroughNode/FlowsThroughLink list. A failed tree link loses its last
// flow, so the sequence also proves the map goes back to nil.
func TestCostMapsFollowTheTrees(t *testing.T) {
	tp, caps, flows := linkFailureShape(rand.New(rand.NewSource(1)))
	r, err := NewRouter(tp, caps, flows)
	if err != nil {
		t.Fatal(err)
	}
	keysAre := func(m map[model.FlowID]float64, through []int32) bool {
		if len(through) == 0 {
			return m == nil
		}
		if len(m) != len(through) {
			return false
		}
		for _, i := range through {
			if _, ok := m[model.FlowID(i)]; !ok {
				return false
			}
		}
		return true
	}
	check := func(when string) {
		t.Helper()
		p := r.Problem()
		for li, l := range p.Links {
			if !keysAre(l.FlowCost, r.FlowsThroughLink(li)) {
				t.Fatalf("%s: link %d costs %v, flows through it %v", when, li, l.FlowCost, r.FlowsThroughLink(li))
			}
		}
		for b, n := range p.Nodes {
			if through := r.FlowsThroughNode(model.NodeID(b)); !keysAre(n.FlowCost, through) {
				t.Fatalf("%s: node %d costs %v, flows through it %v", when, b, n.FlowCost, through)
			}
		}
	}
	check("NewRouter")

	rng := rand.New(rand.NewSource(7))
	var deadLinks []int
	var deadNodes []model.NodeID
	emptied := 0
	for ev := 0; ev < 60; ev++ {
		var st RepairStats
		var err error
		switch op := rng.Intn(10); {
		case op < 4: // fail a link some tree uses
			links := r.Tree(model.FlowID(rng.Intn(len(flows)))).Links
			li := links[rng.Intn(len(links))]
			if st, err = r.RepairLink(li); err == nil {
				deadLinks = append(deadLinks, li)
				emptied++
			}
		case op < 6: // fail a node some tree uses (anchors are refused)
			nodes := r.Tree(model.FlowID(rng.Intn(len(flows)))).Nodes
			b := nodes[rng.Intn(len(nodes))]
			if st, err = r.RepairNode(b); err == nil {
				deadNodes = append(deadNodes, b)
			}
		case op < 8 && len(deadLinks) > 0:
			k := rng.Intn(len(deadLinks))
			if st, err = r.RestoreLink(deadLinks[k]); err != nil {
				t.Fatalf("event %d: %v", ev, err)
			}
			deadLinks = slices.Delete(deadLinks, k, k+1)
		case len(deadNodes) > 0:
			k := rng.Intn(len(deadNodes))
			if st, err = r.RestoreNode(deadNodes[k]); err != nil {
				t.Fatalf("event %d: %v", ev, err)
			}
			deadNodes = slices.Delete(deadNodes, k, k+1)
		default:
			continue
		}
		// A refused failure (an anchor, a bridge) changes nothing; the
		// check holds either way.
		r.TakeDelta()
		check(fmt.Sprintf("event %d (%s %d)", ev, st.Kind, st.Element))
	}
	if emptied < 10 {
		t.Errorf("only %d tree links failed; the sequence does not empty enough cost maps", emptied)
	}
}
