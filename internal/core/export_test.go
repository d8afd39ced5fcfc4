package core

import (
	"fmt"
	"math/bits"
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
// shard holding every flow, gives every node and link a slot on it (which
// leaves none free) — what every Step swept before the plan listed live
// constraints only — re-arms the engine over it and then arms what rearm
// parked, whatever the bound says, so that every Step sweeps every
// constraint and every path view holds the whole path. Reset and
// ResetRouting re-arm by the rule again (and ResetRouting re-plans), so the
// oracle calls SweepAll after NewEngine and after every Reset*, before the
// next Step. Production code has no such plan and no such switch.
func SweepAll(e *Engine) {
	flows := make([]int32, len(e.p.Flows))
	for i := range flows {
		flows[i] = int32(i)
	}
	e.plan = &stagePlan{shards: 1, flows: [][]int32{flows}}
	for b := range e.p.Nodes {
		if e.nodeSlots.at(int32(b)) < 0 {
			e.nodeSlots.take(int32(b))
		}
	}
	for l := range e.p.Links {
		if e.linkSlots.at(int32(l)) < 0 {
			e.linkSlots.take(int32(l))
		}
	}
	e.fitNodes()
	e.fitLinks()
	clear(e.nodeSlots.shard)
	clear(e.linkSlots.shard)
	e.rearm(nil)
	for s := range e.nodeSlots.ids {
		if !e.nodeArmed.has(int32(s)) {
			e.nodeArmed.set(int32(s))
			e.fileNode(int32(s))
		}
	}
	for s := range e.linkSlots.ids {
		if !e.linkArmed.has(int32(s)) {
			e.linkArmed.set(int32(s))
			e.fileLink(int32(s))
		}
	}
	for i := range e.views {
		e.buildView(int32(i))
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

// ListedIDs returns the nodes and links e's plan lists — what its slot
// tables hold — each ascending.
func ListedIDs(e *Engine) (nodes, links []int32) {
	return heldIDs(&e.nodeSlots), heldIDs(&e.linkSlots)
}

// heldIDs returns the ids m holds a slot for, ascending.
func heldIDs(m *slots) []int32 {
	var ids []int32
	for _, id := range m.ids {
		if id >= 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
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
	return e.plan.shards, e.nodeSlots.held(), e.linkSlots.held()
}

// CheckPlanFresh reports how e's plan differs from one built from scratch —
// a fresh index of e's problem, slot tables holding what the live test
// passes at e's current prices, no previous plan: its shard and component
// counts and flow lists, the ids it lists and the shard of each.
func CheckPlanFresh(e *Engine) error {
	ix := model.NewIndex(e.p)
	nodes, links := newSlots(len(e.p.Nodes)), newSlots(len(e.p.Links))
	for b := range e.p.Nodes {
		if s := e.nodeSlots.at(int32(b)); len(ix.FlowsByNode(model.NodeID(b))) > 0 || s >= 0 && e.nodePrices[s] != 0 {
			nodes.take(int32(b))
		}
	}
	for l := range e.p.Links {
		if s := e.linkSlots.at(int32(l)); len(ix.FlowsByLink(model.LinkID(l))) > 0 || s >= 0 && e.linkPrices[s] != 0 {
			links.take(int32(l))
		}
	}
	want := newStagePlan(ix, &nodes, &links, e.cfg.workers)
	got := e.plan
	if got.shards != want.shards || got.components != want.components {
		return fmt.Errorf("plan has %d shards, %d components; from scratch %d, %d",
			got.shards, got.components, want.shards, want.components)
	}
	for s := range want.flows {
		if !slices.Equal(got.flows[s], want.flows[s]) {
			return fmt.Errorf("shard %d flow list %v, from scratch %v", s, got.flows[s], want.flows[s])
		}
	}
	for _, kind := range []struct {
		name      string
		got, want *slots
	}{{"node", &e.nodeSlots, &nodes}, {"link", &e.linkSlots, &links}} {
		for id := range kind.want.of {
			gs, ws := kind.got.at(int32(id)), kind.want.at(int32(id))
			switch {
			case (gs >= 0) != (ws >= 0):
				return fmt.Errorf("%s %d holds slot %d; from scratch %d", kind.name, id, gs, ws)
			case gs >= 0 && kind.got.shard[gs] != kind.want.shard[ws]:
				return fmt.Errorf("%s %d is on shard %d; from scratch %d", kind.name, id, kind.got.shard[gs], kind.want.shard[ws])
			}
		}
	}
	return nil
}

// CheckFiled reports the first shard armed list that is not ascending or
// holds a slot that is not armed or is stamped with another shard, and any
// difference between the slots armed and the slots the lists hold: Step
// sweeps exactly the armed slots, each in the list of the shard it carries.
func CheckFiled(e *Engine) error {
	armedNodes, armedLinks := 0, 0
	for k := range e.sh[:e.plan.shards] {
		for _, kind := range []struct {
			name  string
			list  []int32
			m     *slots
			armed bitset
			count *int
		}{{"node", e.sh[k].nodes, &e.nodeSlots, e.nodeArmed, &armedNodes}, {"link", e.sh[k].links, &e.linkSlots, e.linkArmed, &armedLinks}} {
			for i, s := range kind.list {
				switch {
				case i > 0 && kind.list[i-1] >= s:
					return fmt.Errorf("shard %d %s list %v is not ascending", k, kind.name, kind.list)
				case !kind.armed.has(s):
					return fmt.Errorf("shard %d lists %s slot %d, which is not armed", k, kind.name, s)
				case kind.m.shard[s] != int32(k):
					return fmt.Errorf("shard %d lists %s slot %d, which carries shard %d", k, kind.name, s, kind.m.shard[s])
				}
			}
			*kind.count += len(kind.list)
		}
	}
	count := func(b bitset) int {
		n := 0
		for _, w := range b {
			n += bits.OnesCount64(w)
		}
		return n
	}
	if n, m := count(e.nodeArmed), count(e.linkArmed); n != armedNodes || m != armedLinks {
		return fmt.Errorf("%d nodes and %d links armed, the shards list %d and %d", n, m, armedNodes, armedLinks)
	}
	return nil
}

// CheckIdleCaches reports the first slot table entry that does not name its
// id back, the first free slot not on the free list, and the first node or
// link outside the plan's reach — no flow crosses it and its price is 0 —
// that still holds a cached usage, a cached benefit-cost ratio or a pending
// force, in its slot or in a free slot: what a constraint no flow ever
// crossed holds is zeros, and a free slot holds price 0, the initial γ and
// no armed mark too.
func CheckIdleCaches(e *Engine) error {
	if err := checkSlots("node", &e.nodeSlots); err != nil {
		return err
	}
	if err := checkSlots("link", &e.linkSlots); err != nil {
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

// checkSlots reports how m's two maps disagree: an id whose slot names
// another id, or a slot held by no id that is not on the free list, or a
// free slot that names an id.
func checkSlots(kind string, m *slots) error {
	held := 0
	for id := range m.of {
		if s := m.at(int32(id)); s >= 0 {
			if m.ids[s] != int32(id) {
				return fmt.Errorf("%s %d holds slot %d, which names %d", kind, id, s, m.ids[s])
			}
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
