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
// swept before the plan listed live constraints only — gives every node and
// link a slot (which leaves none free), re-arms the engine over it and then
// arms what rearm parked, whatever the bound says, so that
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
	for _, b := range e.plan.nodes[0] {
		if e.nodeSlots.at(b) < 0 {
			e.addNode(b)
		}
	}
	for _, l := range e.plan.links[0] {
		if e.linkSlots.at(l) < 0 {
			e.addLink(l)
		}
	}
	e.rearm(nil)
	sh := &e.sh[0]
	sh.nodes, sh.links = sh.nodes[:0], sh.links[:0]
	for s, b := range e.nodeSlots.ids {
		sh.nodes = append(sh.nodes, int32(s))
		e.nodePriceEpoch[s], e.nodeCap[s], e.nodeForced[s] = 0, e.p.Nodes[b].Capacity, true
		e.nodeArmed.set(int32(s))
	}
	for s, l := range e.linkSlots.ids {
		sh.links = append(sh.links, int32(s))
		e.linkPriceEpoch[s], e.linkCap[s], e.linkForced[s] = 0, e.p.Links[l].Capacity, true
		e.linkArmed.set(int32(s))
	}
	for i := range e.views {
		e.buildView(i)
	}
}

// Armed returns the nodes and links e's Step sweeps, each ascending.
func Armed(e *Engine) (nodes, links []int32) {
	for k := range e.sh[:e.plan.shards] {
		for _, s := range e.sh[k].nodes {
			nodes = append(nodes, e.nodeSlots.ids[s])
		}
		for _, s := range e.sh[k].links {
			links = append(links, e.linkSlots.ids[s])
		}
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
		nodes = append(nodes, [2]int32{e.nodeSlots.ids[a.slot], a.k})
	}
	for _, a := range v.links {
		links = append(links, [2]int32{e.linkSlots.ids[a.slot], a.k})
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
	want := newStagePlan(model.NewIndex(e.p), e.nodePriced, e.linkPriced, e.cfg.workers, nil, model.RoutingDelta{})
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

// CheckIdleCaches reports the first node or link whose slot does not follow
// the plan — a listed one without a slot, an unlisted one with a slot, a
// slot and its id that disagree — and the first one outside the plan's
// reach — no flow crosses it and its price is 0 — that still holds a cached
// usage, a cached benefit-cost ratio or a pending force, in its slot or in
// a free slot: what a constraint no flow ever crossed holds is zeros, and a
// free slot holds price 0, the initial γ and no armed mark too.
func CheckIdleCaches(e *Engine) error {
	listedNodes, listedLinks := ListedIDs(e)
	if err := checkSlots("node", &e.nodeSlots, listedNodes); err != nil {
		return err
	}
	if err := checkSlots("link", &e.linkSlots, listedLinks); err != nil {
		return err
	}
	for s, b := range e.nodeSlots.ids {
		if b >= 0 && (len(e.ix.FlowsByNode(model.NodeID(b))) > 0 || e.nodePrices[s] != 0) {
			continue
		}
		if e.nodeUsed[s] != 0 || e.nodeBest[s] != 0 || e.nodeForced[s] {
			return fmt.Errorf("idle node %d (slot %d) holds used %g, best %g, forced %v",
				b, s, e.nodeUsed[s], e.nodeBest[s], e.nodeForced[s])
		}
		if b < 0 && (e.nodePrices[s] != 0 || e.gamma.val[s] != e.gamma.init || e.nodeArmed.has(int32(s))) {
			return fmt.Errorf("free node slot %d holds price %g, γ %g, armed %v",
				s, e.nodePrices[s], e.gamma.val[s], e.nodeArmed.has(int32(s)))
		}
	}
	for s, l := range e.linkSlots.ids {
		if l >= 0 && (len(e.ix.FlowsByLink(model.LinkID(l))) > 0 || e.linkPrices[s] != 0) {
			continue
		}
		if e.linkUsed[s] != 0 || e.linkForced[s] {
			return fmt.Errorf("idle link %d (slot %d) holds used %g, forced %v", l, s, e.linkUsed[s], e.linkForced[s])
		}
		if l < 0 && (e.linkPrices[s] != 0 || e.linkArmed.has(int32(s))) {
			return fmt.Errorf("free link slot %d holds price %g, armed %v", s, e.linkPrices[s], e.linkArmed.has(int32(s)))
		}
	}
	return nil
}

// checkSlots reports how m differs from a slot for exactly the listed ids
// (ascending): each listed id's slot names it back, no other id holds one,
// and every other slot is on the free list and names no id.
func checkSlots(kind string, m *slots, listed []int32) error {
	held := 0
	for id := range m.of {
		s := m.at(int32(id))
		_, isListed := slices.BinarySearch(listed, int32(id))
		switch {
		case isListed && s < 0:
			return fmt.Errorf("listed %s %d holds no slot", kind, id)
		case !isListed && s >= 0:
			return fmt.Errorf("%s %d outside the plan holds slot %d", kind, id, s)
		case s >= 0 && m.ids[s] != int32(id):
			return fmt.Errorf("%s %d holds slot %d, which names %d", kind, id, s, m.ids[s])
		case s >= 0:
			held++
		}
	}
	if free := len(m.ids) - held; free != len(m.free) {
		return fmt.Errorf("%d %s slots are not held, %d are on the free list", free, kind, len(m.free))
	}
	for _, s := range m.free {
		if m.ids[s] != -1 {
			return fmt.Errorf("free %s slot %d names %d", kind, s, m.ids[s])
		}
	}
	return nil
}

// Slots returns how many node and link slots e's storage holds, free ones
// included.
func Slots(e *Engine) (nodes, links int) { return len(e.nodeSlots.ids), len(e.linkSlots.ids) }

// NodeSlot and LinkSlot return the slot of a node or link, -1 when it holds
// none.
func NodeSlot(e *Engine, b model.NodeID) int32 { return e.nodeSlots.at(int32(b)) }
func LinkSlot(e *Engine, l model.LinkID) int32 { return e.linkSlots.at(int32(l)) }

// FlowActive reports whether flow i participates in iterations.
func (e *Engine) FlowActive(i model.FlowID) bool { return e.active[i] }

// Iteration returns the number of completed iterations.
func (e *Engine) Iteration() int { return e.iteration }
