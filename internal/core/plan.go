package core

import (
	"slices"
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
// The plan lists every flow but only the live nodes and links: those some
// flow crosses, and those still holding a price. A constraint no flow
// crosses has usage 0 and no unsatisfied class (a class with demand sits on
// its flow's tree, model.Validate), so at price 0 Equations 12 and 13 leave
// it at 0 — p + γ(0 − p) and [p + γ(0 − c)]⁺ — and sweeping it computes
// nothing. One that loses its last flow while priced stays listed until its
// price has decayed to exactly 0; one that gains a flow is named by the
// routing delta that rebuilds the plan. Which of the listed constraints a
// Step sweeps is not the plan's business: rearm parks those that cannot bind.
//
// The analysis runs once per topology (NewEngine and ResetRouting; Reset
// keeps the topology, so the plan survives it) over the index's dense
// membership views and the two price vectors; it never consults costs or
// capacities, which may change.

// minParallelItems is the smallest item count (the largest of flows, live
// nodes and live links) worth fanning out over the worker pool; below it a
// Step's work is comparable to the dispatch overhead and the plan is one
// shard. Because every plan performs the serial arithmetic, the cutover is
// purely a performance decision.
const minParallelItems = 16

// stagePlan is Step's schedule: a fixed assignment of every flow and every
// live node and link to a shard. Either whole connected components packed
// onto the requested number of shards, or one shard holding everything.
type stagePlan struct {
	// components is the number of connected components found
	// (informational; 0 when the analysis did not run).
	components int
	// tested is the number of node and link ids the live test ran on to
	// build the plan (informational).
	tested int
	// shards is Step's fan-out; flows/nodes/links are indexed by shard,
	// each list ascending so per-shard iteration order matches the serial
	// scan order.
	shards int
	flows  [][]int32
	nodes  [][]int32
	links  [][]int32
}

// newStagePlan builds Step's schedule for the indexed problem at the given
// prices: the component packing over at most workers shards when the
// topology allows it (pack), otherwise — a budget of 1, fewer than
// minParallelItems items, or a topology pack rejects — one shard whose lists
// are every flow and the live constraints in ascending order, i.e. the
// serial scan.
//
// With prev nil the live test runs on every node and link of the problem.
// With prev, the plan being replaced, it runs on what prev lists and what
// the routing delta d names, and finds the same lists: a constraint neither
// listed nor named had no flow and price 0 when prev was built, no delta
// since gave it a flow and no Step has swept it. A re-plan then costs
// listed + delta, never the size of the overlay.
func newStagePlan(ix *model.Index, nodePrices, linkPrices []float64, workers int, prev *stagePlan, d model.RoutingDelta) *stagePlan {
	flows := make([]int32, len(ix.Problem().Flows))
	for i := range flows {
		flows[i] = int32(i)
	}
	plan := &stagePlan{shards: 1, flows: [][]int32{flows}}
	var prevNodes, prevLinks [][]int32
	if prev != nil {
		prevNodes, prevLinks = prev.nodes, prev.links
	}
	nodes := liveIDs(len(nodePrices), prevNodes, d.Nodes, &plan.tested, func(b int32) bool {
		return len(ix.FlowsByNode(model.NodeID(b))) == 0 && nodePrices[b] == 0
	})
	links := liveIDs(len(linkPrices), prevLinks, d.Links, &plan.tested, func(l int32) bool {
		return len(ix.FlowsByLink(model.LinkID(l))) == 0 && linkPrices[l] == 0
	})
	plan.nodes, plan.links = [][]int32{nodes}, [][]int32{links}
	if workers > 1 && max(len(flows), len(nodes), len(links)) >= minParallelItems {
		plan.pack(ix, workers)
	}
	return plan
}

// liveIDs returns in ascending order the ids that are not idle: of all n
// when prev is nil, otherwise of those prev lists and those named. tested
// grows by the number of ids it looked at.
func liveIDs[ID ~int](n int, prev [][]int32, named []ID, tested *int, idle func(int32) bool) []int32 {
	var ids []int32
	if prev == nil {
		*tested += n
		for id := int32(0); int(id) < n; id++ {
			if !idle(id) {
				ids = append(ids, id)
			}
		}
		return ids
	}
	ids = make([]int32, 0, listed(prev)+len(named))
	for _, list := range prev {
		ids = append(ids, list...)
	}
	if len(prev) > 1 {
		slices.Sort(ids)
	}
	for _, id := range named {
		if k, found := slices.BinarySearch(ids, int32(id)); !found {
			ids = slices.Insert(ids, k, int32(id))
		}
	}
	*tested += len(ids)
	return slices.DeleteFunc(ids, idle)
}

// listed is the number of ids a plan's per-shard lists hold.
func listed(lists [][]int32) int {
	n := 0
	for _, ids := range lists {
		n += len(ids)
	}
	return n
}

// pack runs the crossing-writes analysis on a one-shard plan: it finds the
// connected components of the flow/node/link incidence graph, packs them
// onto the widest shard count within budget that assign accepts and splits
// the lists accordingly. The plan stays one shard when the topology does
// not split at any of them. Deterministic: union-find roots, component
// order and the greedy assignment depend only on the topology and on which
// unloaded constraints hold a price, never on scheduling or map iteration.
func (plan *stagePlan) pack(ix *model.Index, budget int) {
	flows, nodes, links := plan.flows[0], plan.nodes[0], plan.links[0]

	// Two flows share a component iff a chain of shared nodes and links
	// joins them, so the union-find runs over flows alone. Union-by-minimum
	// keeps every root the smallest flow of its component, which both
	// orders components deterministically and lets the collection pass
	// below recognize roots on first visit.
	parent := make([]int32, len(flows))
	copy(parent, flows)
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	join := func(crossing []model.FlowID) {
		for _, i := range crossing[1:] {
			ra, rb := find(int32(crossing[0])), find(int32(i))
			switch {
			case ra < rb:
				parent[rb] = ra
			case rb < ra:
				parent[ra] = rb
			}
		}
	}
	for _, b := range nodes {
		if fl := ix.FlowsByNode(model.NodeID(b)); len(fl) > 1 {
			join(fl)
		}
	}
	for _, l := range links {
		if fl := ix.FlowsByLink(model.LinkID(l)); len(fl) > 1 {
			join(fl)
		}
	}
	// Classes add no edges: a class's node is required (model.Validate) to
	// carry the class's flow, so that flow-node pair is already united.

	// Components in root order — flow components by smallest flow, then
	// each priced constraint no flow crosses as a component of its own —
	// with their balancing weights: classes dominate both the rate solve
	// (per-flow class scan) and the admission sort (per-node class scan),
	// so flows and nodes count their attached classes on top of themselves.
	var weight []int
	flowComp := make([]int32, len(flows))
	for v := range flows {
		if r := find(int32(v)); int(r) == v {
			flowComp[v] = int32(len(weight))
			weight = append(weight, 0)
		} else {
			flowComp[v] = flowComp[r]
		}
		weight[flowComp[v]] += 1 + len(ix.ClassesByFlow(model.FlowID(v)))
	}
	place := func(ids []int32, crossing func(int32) []model.FlowID, w func(int32) int) []int32 {
		comp := make([]int32, len(ids))
		for k, id := range ids {
			if fl := crossing(id); len(fl) > 0 {
				comp[k] = flowComp[fl[0]]
			} else {
				comp[k] = int32(len(weight))
				weight = append(weight, 0)
			}
			weight[comp[k]] += w(id)
		}
		return comp
	}
	nodeComp := place(nodes,
		func(b int32) []model.FlowID { return ix.FlowsByNode(model.NodeID(b)) },
		func(b int32) int { return 1 + len(ix.ClassesByNode(model.NodeID(b))) })
	linkComp := place(links,
		func(l int32) []model.FlowID { return ix.FlowsByLink(model.LinkID(l)) },
		func(int32) int { return 1 })
	plan.components = len(weight)

	// The widest plan the budget allows: the budget itself, then halves of
	// it down to budget/shardsPerProc — GOMAXPROCS, when the budget is
	// NewEngine's — so a topology that packs at GOMAXPROCS shards never
	// packs narrower than it, however few components it has.
	order := make([]int, len(weight))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
	for shards := budget; shards >= max(2, budget/shardsPerProc); shards /= 2 {
		shardOf := assign(weight, order, shards)
		if shardOf == nil {
			continue
		}
		split := func(ids, comp []int32) [][]int32 {
			lists := make([][]int32, shards)
			for k, id := range ids {
				s := shardOf[comp[k]]
				lists[s] = append(lists[s], id)
			}
			return lists
		}
		plan.shards = shards
		plan.flows, plan.nodes, plan.links = split(flows, flowComp), split(nodes, nodeComp), split(links, linkComp)
		return
	}
}

// assign packs components of the given weights onto shards, returning each
// component's shard, or nil when it does not split that way: fewer
// components than shards (a worker would idle), or no assignment balanced
// within 2x of the mean shard weight and two thirds of the total. order
// lists the components heaviest first, ties in root order.
//
// Longest-processing-time assignment: heaviest component first into the
// lightest shard. Ties break on root order and shard index, keeping the
// whole assignment deterministic.
func assign(weight, order []int, shards int) []int32 {
	if len(weight) < shards {
		return nil
	}
	shardWeight := make([]int, shards)
	shardOf := make([]int32, len(weight))
	totalWeight, maxWeight := 0, 0
	for _, k := range order {
		s := 0
		for t := 1; t < shards; t++ {
			if shardWeight[t] < shardWeight[s] {
				s = t
			}
		}
		shardOf[k] = int32(s)
		shardWeight[s] += weight[k]
		totalWeight += weight[k]
		maxWeight = max(maxWeight, shardWeight[s])
	}
	// A shard more than 2x the mean would serialize the whole Step behind
	// it while the others idle at the barrier. Two shards can never be that
	// far apart, so there the heavier one must also stay under two thirds of
	// everything: once idle singletons no longer pad the light side, a giant
	// component beside one stray flow is a barrier bought for nothing.
	if maxWeight*max(shards, 3) > 2*totalWeight {
		return nil
	}
	return shardOf
}
