package core

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Hooks for the tests of package core_test, which has to be a package of
// its own to import overlay (overlay imports core).

// WithWorkers returns cfg with a shard budget of n instead of GOMAXPROCS,
// for the tests that need shard counts the host does not have. Tests of
// package core set the field directly.
func WithWorkers(cfg Config, n int) Config {
	cfg.workers = n
	return cfg
}

// SweepAll makes e the full-sweep oracle: it replaces e's plan with one
// shard listing every flow, node and link of the problem — what every Step
// swept before the plan listed live constraints only — re-arms the engine
// over it and then arms what rearm parked, whatever the bound says, so that
// every Step sweeps every constraint and every path view holds the whole
// path. Reset and ResetRouting re-arm by the rule again (and ResetRouting
// adopts a live plan), so the oracle calls SweepAll after NewEngine and
// after every Reset*, before the next Step. Production code has no such plan
// and no such switch.
func SweepAll(e *Engine) {
	identity := func(n int) [][]int32 {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		return [][]int32{ids}
	}
	e.plan = &stagePlan{
		shards: 1,
		flows:  identity(len(e.p.Flows)),
		nodes:  identity(len(e.p.Nodes)),
		links:  identity(len(e.p.Links)),
	}
	e.rearm(nil)
	sh := &e.sh[0]
	sh.nodes = append(sh.nodes[:0], e.plan.nodes[0]...)
	sh.links = append(sh.links[:0], e.plan.links[0]...)
	for b := range e.p.Nodes {
		e.nodePriceEpoch[b], e.nodeCap[b], e.nodeForced[b] = 0, e.p.Nodes[b].Capacity, true
		e.nodeArmed.set(int32(b))
	}
	for l := range e.p.Links {
		e.linkPriceEpoch[l], e.linkCap[l], e.linkForced[l] = 0, e.p.Links[l].Capacity, true
		e.linkArmed.set(int32(l))
	}
	for i := range e.views {
		e.buildView(i)
	}
}

// Armed returns the nodes and links e's Step sweeps, each ascending.
func Armed(e *Engine) (nodes, links []int32) {
	for s := range e.sh[:e.plan.shards] {
		nodes = append(nodes, e.sh[s].nodes...)
		links = append(links, e.sh[s].links...)
	}
	slices.Sort(nodes)
	slices.Sort(links)
	return nodes, links
}

// ListedIDs returns the nodes and links e's plan lists, each ascending.
func ListedIDs(e *Engine) (nodes, links []int32) {
	nodes = slices.Concat(e.plan.nodes...)
	links = slices.Concat(e.plan.links...)
	slices.Sort(nodes)
	slices.Sort(links)
	return nodes, links
}

// PlanTested returns how many node and link ids the live test looked at to
// build e's plan.
func PlanTested(e *Engine) int { return e.plan.tested }

// RearmTested returns how many nodes and links e's last re-arm tested the
// parking rule on.
func RearmTested(e *Engine) int { return e.rearmTested }

// PathView returns flow i's armed path view as (id, position on the path)
// pairs, nodes and links each in path order.
func PathView(e *Engine, i model.FlowID) (nodes, links [][2]int32) {
	v := &e.views[i]
	for _, a := range v.nodes {
		nodes = append(nodes, [2]int32{a.id, a.k})
	}
	for _, a := range v.links {
		links = append(links, [2]int32{a.id, a.k})
	}
	return nodes, links
}

// Listed returns how many shards, nodes and links e's plan has.
func Listed(e *Engine) (shards, nodes, links int) {
	return e.plan.shards, listed(e.plan.nodes), listed(e.plan.links)
}

// CheckPlanFresh reports how e's plan differs from one built from scratch —
// a fresh index of e's problem, e's current prices, no previous plan.
func CheckPlanFresh(e *Engine) error {
	want := newStagePlan(model.NewIndex(e.p), e.nodePrices, e.linkPrices, e.cfg.workers, nil, model.RoutingDelta{})
	got := e.plan
	if got.shards != want.shards || got.components != want.components {
		return fmt.Errorf("plan has %d shards, %d components; from scratch %d, %d",
			got.shards, got.components, want.shards, want.components)
	}
	for _, kind := range []struct {
		name      string
		got, want [][]int32
	}{
		{"flow", got.flows, want.flows},
		{"node", got.nodes, want.nodes},
		{"link", got.links, want.links},
	} {
		for s := range kind.want {
			if !slices.Equal(kind.got[s], kind.want[s]) {
				return fmt.Errorf("shard %d %s list %v, from scratch %v", s, kind.name, kind.got[s], kind.want[s])
			}
		}
	}
	return nil
}

// CheckIdleCaches reports the first node or link outside the plan's reach —
// no flow crosses it and its price is 0 — that still holds a cached usage,
// a cached benefit-cost ratio or a pending force: what a constraint no flow
// ever crossed holds is zeros.
func CheckIdleCaches(e *Engine) error {
	for b := range e.p.Nodes {
		if len(e.ix.FlowsByNode(model.NodeID(b))) > 0 || e.nodePrices[b] != 0 {
			continue
		}
		if e.nodeUsed[b] != 0 || e.nodeBest[b] != 0 || e.nodeForced[b] {
			return fmt.Errorf("idle node %d holds used %g, best %g, forced %v",
				b, e.nodeUsed[b], e.nodeBest[b], e.nodeForced[b])
		}
	}
	for l := range e.p.Links {
		if len(e.ix.FlowsByLink(model.LinkID(l))) > 0 || e.linkPrices[l] != 0 {
			continue
		}
		if e.linkUsed[l] != 0 || e.linkForced[l] {
			return fmt.Errorf("idle link %d holds used %g, forced %v", l, e.linkUsed[l], e.linkForced[l])
		}
	}
	return nil
}
