package core

import (
	"sort"

	"repro/internal/model"
)

// Stage planning (DESIGN.md §5). Within one Step a node's admission reads
// the rates of the flows that reach it and a flow's next rate reads the
// prices of the nodes and links on its path, so in general every stage
// needs every other stage's writes. But that data flow is confined to the
// connected components of the flow/node/link incidence graph: a node only
// ever reads flows that reach it, a link only flows that traverse it, and
// a flow only nodes and links on its own path. When shards are unions of
// whole components, every cross-stage read stays inside the shard, so one
// worker can run rate-solve → admission → price update for its components
// back to back — one barrier per Step — and still perform exactly the
// serial arithmetic on exactly the serial values. A topology that does not
// split that way runs as one shard on the caller's goroutine.
//
// The analysis runs once per topology (NewEngine and ResetRouting; Reset
// keeps the topology, so the plan survives it) over the index's dense
// membership views; it never consults costs or capacities, which may
// change.

// minParallelItems is the smallest item count (the largest of flows, nodes
// and links) worth fanning out over the worker pool; below it a Step's
// work is comparable to the dispatch overhead and the plan is one shard.
// Because every plan performs the serial arithmetic, the cutover is purely
// a performance decision.
const minParallelItems = 16

// stagePlan is Step's schedule: a fixed assignment of every flow, node and
// link to a shard. Either whole connected components packed onto the
// requested number of shards, or one shard holding everything.
type stagePlan struct {
	// components is the number of connected components found
	// (informational; 0 when the analysis did not run).
	components int
	// shards is Step's fan-out; flows/nodes/links are indexed by shard,
	// each list ascending so per-shard iteration order matches the serial
	// scan order.
	shards int
	flows  [][]int32
	nodes  [][]int32
	links  [][]int32
}

// planWeight estimates one vertex's per-iteration work for balancing:
// classes dominate both the rate solve (per-flow class scan) and the
// admission sort (per-node class scan), so flows and nodes count their
// attached classes on top of themselves.
func planWeight(ix *model.Index, flows, nodes, links int, v int) int {
	switch {
	case v < flows:
		return 1 + len(ix.ClassesByFlow(model.FlowID(v)))
	case v < flows+nodes:
		return 1 + len(ix.ClassesByNode(model.NodeID(v-flows)))
	default:
		return 1
	}
}

// newStagePlan builds Step's schedule for p: the component packing over
// workers shards when the topology allows it, otherwise — Workers 1, fewer
// than minParallelItems items, or a topology packComponents rejects — one
// shard whose lists are the identity, i.e. the serial scan.
func newStagePlan(p *model.Problem, ix *model.Index, workers int) *stagePlan {
	nf, nn, nl := len(p.Flows), len(p.Nodes), len(p.Links)
	plan := &stagePlan{shards: 1}
	var shardOf []int32 // per vertex: flows, then nodes, then links
	if workers > 1 && max(nf, nn, nl) >= minParallelItems {
		plan.components, shardOf = packComponents(ix, nf, nn, nl, workers)
	}
	if shardOf != nil {
		plan.shards = workers
	} else {
		shardOf = make([]int32, nf+nn+nl) // every vertex in shard 0
	}
	counts := make([]int, plan.shards)
	fill := func(base, n int) [][]int32 {
		for s := range counts {
			counts[s] = 0
		}
		for v := 0; v < n; v++ {
			counts[shardOf[base+v]]++
		}
		lists := make([][]int32, plan.shards)
		for s := range lists {
			lists[s] = make([]int32, 0, counts[s])
		}
		for v := 0; v < n; v++ {
			s := shardOf[base+v]
			lists[s] = append(lists[s], int32(v))
		}
		return lists
	}
	plan.flows = fill(0, nf)
	plan.nodes = fill(nf, nn)
	plan.links = fill(nf+nn, nl)
	return plan
}

// packComponents runs the crossing-writes analysis: it finds the connected
// components of the flow/node/link incidence graph and packs them onto
// shards, returning the component count and each vertex's shard (flows
// [0,nf), nodes [nf,nf+nn), links after). The shard slice is nil when the
// topology does not split: fewer components than shards (a worker would
// idle), or no assignment balanced within 2x of the mean shard weight.
// Deterministic: union-find roots, component order and the greedy
// assignment depend only on the topology, never on scheduling or map
// iteration.
func packComponents(ix *model.Index, nf, nn, nl, shards int) (int, []int32) {
	total := nf + nn + nl

	// Union-by-minimum keeps every root the smallest vertex of its
	// component, which both orders components deterministically and lets
	// the collection pass below recognize roots on first visit.
	parent := make([]int32, total)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		switch {
		case ra < rb:
			parent[rb] = ra
		case rb < ra:
			parent[ra] = rb
		}
	}
	for b := 0; b < nn; b++ {
		for _, i := range ix.FlowsByNode(model.NodeID(b)) {
			union(int32(i), int32(nf+b))
		}
	}
	for l := 0; l < nl; l++ {
		for _, i := range ix.FlowsByLink(model.LinkID(l)) {
			union(int32(i), int32(nf+nn+l))
		}
	}
	// Classes add no edges: a class's node is required (model.Validate) to
	// carry the class's flow, so that flow-node pair is already united.

	// Collect components in root order with their balancing weights.
	type component struct {
		root   int32
		weight int
	}
	compOf := make([]int32, total)
	var comps []component
	for v := 0; v < total; v++ {
		r := find(int32(v))
		if int(r) == v {
			compOf[v] = int32(len(comps))
			comps = append(comps, component{root: r})
		} else {
			compOf[v] = compOf[r]
		}
		comps[compOf[v]].weight += planWeight(ix, nf, nn, nl, v)
	}
	if len(comps) < shards {
		return len(comps), nil
	}

	// Longest-processing-time assignment: heaviest component first into the
	// lightest shard. Ties break on root (components) and shard index
	// (shards), keeping the whole assignment deterministic.
	order := make([]int, len(comps))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := comps[order[a]], comps[order[b]]
		if ca.weight != cb.weight {
			return ca.weight > cb.weight
		}
		return ca.root < cb.root
	})
	shardWeight := make([]int, shards)
	shardOf := make([]int32, len(comps))
	totalWeight := 0
	for _, k := range order {
		s := 0
		for t := 1; t < shards; t++ {
			if shardWeight[t] < shardWeight[s] {
				s = t
			}
		}
		shardOf[k] = int32(s)
		shardWeight[s] += comps[k].weight
		totalWeight += comps[k].weight
	}
	maxWeight := 0
	for _, w := range shardWeight {
		if w > maxWeight {
			maxWeight = w
		}
	}
	// A shard more than 2x the mean would serialize the whole Step behind
	// it while the others idle at the barrier.
	if maxWeight*shards > 2*totalWeight {
		return len(comps), nil
	}
	for v, k := range compOf {
		compOf[v] = shardOf[k]
	}
	return len(comps), compOf
}
