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
	for _, t := range e.tables() {
		for id := range t.of {
			if t.at(int32(id)) < 0 {
				t.take(int32(id))
			}
		}
		clear(t.shard)
	}
	e.fit()
	e.rearm(nil)
	for _, t := range e.tables() {
		for s, id := range t.ids {
			if !t.armed.has(int32(s)) {
				t.armed.set(int32(s))
				t.file(int32(s), t.capacity(e.p, id))
			}
		}
	}
	for i := range e.views {
		e.buildView(int32(i))
	}
}

// Armed returns the nodes and links e's Step sweeps, each ascending.
func Armed(e *Engine) (nodes, links []int32) {
	armed := func(t *constraintTable) []int32 {
		var ids []int32
		for _, list := range t.lists[:e.plan.shards] {
			for _, s := range list {
				ids = append(ids, t.ids[s])
			}
		}
		slices.Sort(ids)
		return ids
	}
	return armed(&e.nodes), armed(&e.links)
}

// ListedIDs returns the nodes and links e's plan lists — what its slot
// tables hold — each ascending.
func ListedIDs(e *Engine) (nodes, links []int32) {
	return heldIDs(&e.nodes.slots), heldIDs(&e.links.slots)
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
		nodes = append(nodes, [2]int32{e.nodes.ids[a.slot], a.k})
	}
	for _, a := range v.links {
		links = append(links, [2]int32{e.links.ids[a.slot], a.k})
	}
	return nodes, links
}

// Listed returns how many shards, nodes and links e's plan has.
func Listed(e *Engine) (shards, nodes, links int) {
	return e.plan.shards, e.nodes.held(), e.links.held()
}

// CheckPlanFresh reports how e's plan differs from one built from scratch —
// a fresh index of e's problem, slot tables holding what the live test
// passes at e's current prices, no previous plan: its shard and component
// counts and flow lists, the ids it lists and the shard of each.
func CheckPlanFresh(e *Engine) error {
	ix := model.NewIndex(e.p)
	nodes, links := newTable(len(e.p.Nodes), false), newTable(len(e.p.Links), true)
	fresh := [2]*constraintTable{&nodes, &links}
	for k, t := range e.tables() {
		for id := range t.of {
			s := t.at(int32(id))
			if len(t.flows(ix, int32(id))) > 0 || s >= 0 && t.prices[s] != 0 {
				fresh[k].take(int32(id))
			}
		}
	}
	want := newStagePlan(ix, fresh, e.cfg.workers)
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
	for k, t := range e.tables() {
		for id := range t.of {
			gs, ws := t.at(int32(id)), fresh[k].at(int32(id))
			switch {
			case (gs >= 0) != (ws >= 0):
				return fmt.Errorf("%s %d holds slot %d; from scratch %d", kindName(t), id, gs, ws)
			case gs >= 0 && t.shard[gs] != fresh[k].shard[ws]:
				return fmt.Errorf("%s %d is on shard %d; from scratch %d", kindName(t), id, t.shard[gs], fresh[k].shard[ws])
			}
		}
	}
	return nil
}

// kindName names t's kind in messages.
func kindName(t *constraintTable) string {
	if t.link {
		return "link"
	}
	return "node"
}

// CheckFiled reports the first shard armed list that is not ascending or
// holds a slot that is not armed or is stamped with another shard, and any
// difference between the slots armed and the slots the lists hold: Step
// sweeps exactly the armed slots, each in the list of the shard it carries.
func CheckFiled(e *Engine) error {
	for _, t := range e.tables() {
		filed := 0
		for k, list := range t.lists[:e.plan.shards] {
			for i, s := range list {
				switch {
				case i > 0 && list[i-1] >= s:
					return fmt.Errorf("shard %d %s list %v is not ascending", k, kindName(t), list)
				case !t.armed.has(s):
					return fmt.Errorf("shard %d lists %s slot %d, which is not armed", k, kindName(t), s)
				case t.shard[s] != int32(k):
					return fmt.Errorf("shard %d lists %s slot %d, which carries shard %d", k, kindName(t), s, t.shard[s])
				}
			}
			filed += len(list)
		}
		armed := 0
		for _, w := range t.armed {
			armed += bits.OnesCount64(w)
		}
		if armed != filed {
			return fmt.Errorf("%d %ss armed, the shards list %d", armed, kindName(t), filed)
		}
	}
	return nil
}

// CheckIdleCaches reports the first slot table entry that does not name its
// id back, the first free slot not on the free list, the first node or link
// outside the plan's reach — no flow crosses it and its price is 0 — that
// still holds a cached usage, a cached benefit-cost ratio or a pending
// force, and the first free slot whose state, in any per-slot array of its
// table or, for a node, in nodeBest and the gamma bank, differs from a
// freshly fitted slot's: a free slot holds what an untouched constraint
// holds.
func CheckIdleCaches(e *Engine) error {
	// fresh is an engine of one node and one link slot, each just fitted.
	fresh := &Engine{nodes: newTable(1, false), links: newTable(1, true), gamma: newGammaBank(e.cfg.GammaLiteral, 0)}
	for _, t := range fresh.tables() {
		t.take(0)
	}
	fresh.fit()
	for k, t := range e.tables() {
		if err := checkSlots(kindName(t), &t.slots); err != nil {
			return err
		}
		want := fresh.slotState(fresh.tables()[k], 0)
		for s, id := range t.ids {
			if id >= 0 {
				if len(t.flows(e.ix, id)) > 0 || t.prices[s] != 0 {
					continue
				}
			}
			got := e.slotState(t, int32(s))
			if got.used != 0 || got.best != 0 || got.forced {
				return fmt.Errorf("idle %s %d (slot %d) holds used %g, best %g, forced %v",
					kindName(t), id, s, got.used, got.best, got.forced)
			}
			if id < 0 && got != want {
				return fmt.Errorf("free %s slot %d holds %+v, a fresh slot %+v", kindName(t), s, got, want)
			}
		}
	}
	return nil
}

// slotState is everything the engine keeps for one slot.
type slotState struct {
	price, capacity, used float64
	forced                bool
	epoch                 int
	armed, cand           bool
	best                  float64
	gamma, prevGap        float64
	sameRun               int32
	havePrev              bool
}

// slotState returns what slot s of t holds, nodeBest and the gamma bank's
// entry included for a node.
func (e *Engine) slotState(t *constraintTable, s int32) slotState {
	st := slotState{
		price: t.prices[s], capacity: t.caps[s], used: t.used[s],
		forced: t.forced[s], epoch: t.epochs[s],
		armed: t.armed.has(s), cand: t.cand.has(s),
	}
	if t == &e.nodes {
		g := e.gamma
		st.best = e.nodeBest[s]
		st.gamma, st.prevGap, st.sameRun, st.havePrev = g.val[s], g.prevGap[s], g.sameRun[s], g.havePrev[s]
	}
	return st
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
func Slots(e *Engine) (nodes, links int) { return len(e.nodes.ids), len(e.links.ids) }

// NodeSlot and LinkSlot return the slot of a node or link, -1 when it holds
// none.
func NodeSlot(e *Engine, b model.NodeID) int32 { return e.nodes.at(int32(b)) }
func LinkSlot(e *Engine, l model.LinkID) int32 { return e.links.at(int32(l)) }

// FlowActive reports whether flow i participates in iterations.
func (e *Engine) FlowActive(i model.FlowID) bool { return e.active[i] }

// Iteration returns the number of completed iterations.
func (e *Engine) Iteration() int { return e.iteration }
