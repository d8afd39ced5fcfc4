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
// The plan partitions every flow; the nodes and links it lists are the ones
// the engine's tables hold (see constraintTable), each slot carrying its
// shard. Those are the live ones: some flow crosses them, or they still
// hold a price. A constraint no flow crosses has usage 0 and no unsatisfied class
// (a class with demand sits on its flow's tree, model.Validate), so at
// price 0 Equations 12 and 13 leave it at 0 — p + γ(0 − p) and
// [p + γ(0 − c)]⁺ — and sweeping it computes nothing. One that loses its
// last flow while priced stays listed until its price has decayed to
// exactly 0; one that gains a flow is named by the routing delta that
// rebuilds the plan (relist). Which of the listed constraints a Step sweeps
// is not the plan's business: rearm parks those that cannot bind.
//
// The analysis runs once per topology (NewEngine and ResetRouting; Reset
// keeps the topology, so the plan survives it) over the index's dense
// membership views and the slot tables; it never consults costs or
// capacities, which may change.

// minParallelItems is the smallest item count (the largest of flows, live
// nodes and live links) worth fanning out over the worker pool; below it a
// Step's work is comparable to the dispatch overhead and the plan is one
// shard. Because every plan performs the serial arithmetic, the cutover is
// purely a performance decision.
const minParallelItems = 16

// stagePlan is Step's schedule: a fixed assignment of every flow to a shard,
// and through the slot tables' stamps of every live node and link. Either
// whole connected components packed onto the requested number of shards, or
// one shard holding everything.
type stagePlan struct {
	// components is the number of connected components found
	// (informational; 0 when the analysis did not run).
	components int
	// tested is the number of node and link ids the live test ran on to
	// build the plan (informational).
	tested int
	// shards is Step's fan-out; flows is indexed by shard, each list
	// ascending so per-shard iteration order matches the serial scan order.
	shards int
	flows  [][]int32
}

// replan rebuilds Step's plan for the engine's index: relist brings the slot
// tables up to the live test — every id when d is nil (NewEngine), else what
// they hold and what d names, so a re-plan costs listed + delta, never the
// size of the overlay — and newStagePlan stamps each slot's shard.
func (e *Engine) replan(d *model.RoutingDelta) {
	var named model.RoutingDelta
	if d != nil {
		named = *d
	}
	tested := relist(e, &e.nodes, named.Nodes, d == nil) + relist(e, &e.links, named.Links, d == nil)
	e.fit()
	plan := newStagePlan(e.ix, e.tables(), e.cfg.workers)
	plan.tested = tested
	e.adoptPlan(plan)
}

// newStagePlan builds Step's schedule for the indexed problem over the nodes
// and links the tables hold and stamps each slot's shard: the component
// packing over at most workers shards when the topology allows it (pack),
// otherwise — a budget of 1, fewer than minParallelItems items, or a
// topology pack rejects — one shard holding every flow in ascending order,
// i.e. the serial scan, and every stamp 0.
func newStagePlan(ix *model.Index, tables [2]*constraintTable, workers int) *stagePlan {
	flows := make([]int32, len(ix.Problem().Flows))
	for i := range flows {
		flows[i] = int32(i)
	}
	plan := &stagePlan{shards: 1, flows: [][]int32{flows}}
	items := len(flows)
	for _, t := range tables {
		clear(t.shard)
		items = max(items, t.held())
	}
	if workers > 1 && items >= minParallelItems {
		plan.pack(ix, workers, tables)
	}
	return plan
}

// pack runs the crossing-writes analysis on a one-shard plan: it finds the
// connected components of the flow/node/link incidence graph over the flows
// and the slotted nodes and links, packs them onto the widest shard count
// within budget that assign accepts, splits the flow list and stamps each
// slot's shard accordingly. The plan stays one shard when the topology does
// not split at any of them. Deterministic: union-find roots, component
// order and the greedy assignment depend only on the topology and on which
// unloaded constraints hold a price, never on scheduling, map iteration or
// slot numbers.
func (plan *stagePlan) pack(ix *model.Index, budget int, tables [2]*constraintTable) {
	flows := plan.flows[0]

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
	for _, t := range tables {
		for _, id := range t.ids {
			if id >= 0 {
				if fl := t.flows(ix, id); len(fl) > 1 {
					join(fl)
				}
			}
		}
	}
	// Classes add no edges: a class's node is required (model.Validate) to
	// carry the class's flow, so that flow-node pair is already united.

	// Components in root order — flow components by smallest flow, then
	// each priced constraint no flow crosses as a component of its own, in
	// ascending id order — with their balancing weights: classes dominate
	// both the rate solve (per-flow class scan) and the admission sort
	// (per-node class scan), so flows and nodes count their attached
	// classes on top of themselves.
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
	// comps[k][s] is slot s of tables[k]'s component, -1 for a free slot
	// and for one no flow crosses, which alone then gives a component of
	// its own.
	var comps [2][]int32
	for k, t := range tables {
		comp := make([]int32, len(t.ids))
		for s, id := range t.ids {
			comp[s] = -1
			if id < 0 {
				continue
			}
			if fl := t.flows(ix, id); len(fl) > 0 {
				comp[s] = flowComp[fl[0]]
				weight[comp[s]] += slotWeight(ix, t, id)
			}
		}
		comps[k] = comp
	}
	for k, t := range tables {
		weight = alone(ix, t, comps[k], weight)
	}
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
		plan.shards = shards
		plan.flows = make([][]int32, shards)
		for v, c := range flowComp {
			plan.flows[shardOf[c]] = append(plan.flows[shardOf[c]], int32(v))
		}
		for k, t := range tables {
			for s, c := range comps[k] {
				if c >= 0 {
					t.shard[s] = shardOf[c]
				}
			}
		}
		return
	}
}

// alone gives each held slot of t without a component in comp — a priced
// constraint no flow crosses — a component of its own, in ascending id
// order, appending its weight to weight, which it returns. It is a
// function of its own, not a closure of pack: inlined there it pushes pack
// past the inliner's budget for the union-find's find, which then costs a
// call per join.
func alone(ix *model.Index, t *constraintTable, comp []int32, weight []int) []int {
	var ids []int32
	for s, c := range comp {
		if c < 0 && t.ids[s] >= 0 {
			ids = append(ids, t.ids[s])
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		comp[t.at(id)] = int32(len(weight))
		weight = append(weight, slotWeight(ix, t, id))
	}
	return weight
}

// slotWeight is constraint id's balancing weight: 1, and a node's attached
// classes on top (see pack).
func slotWeight(ix *model.Index, t *constraintTable, id int32) int {
	if t.link {
		return 1
	}
	return 1 + len(ix.ClassesByNode(model.NodeID(id)))
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
