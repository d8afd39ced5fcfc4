package core

import (
	"cmp"
	"slices"

	"repro/internal/model"
)

// slots numbers the constraints of one kind (nodes or links) the stage plan
// lists, densely, so the engine's per-constraint state (constraintTable) is
// sized by the plan, not by the overlay (DESIGN.md §5). The table is the
// plan's record of which constraints it lists, and each slot carries its
// plan shard. A slot is
// stable: it is taken when its constraint enters the plan and freed when it
// leaves, and a freed slot is reused before the storage grows, so the
// storage never outgrows the most constraints the plan has listed at once.
type slots struct {
	// of[id] is id's slot + 1, 0 when the plan does not list id; ids[s] is
	// the id holding slot s, -1 when s is free; shard[s] is the plan shard
	// of slot s, 0 on a one-shard plan; free lists the free slots.
	of    []int32
	ids   []int32
	shard []int32
	free  []int32
}

func newSlots(n int) slots { return slots{of: make([]int32, n)} }

// at returns id's slot, -1 when the plan does not list id.
func (m *slots) at(id int32) int32 { return m.of[id] - 1 }

// held is the number of ids the plan lists.
func (m *slots) held() int { return len(m.ids) - len(m.free) }

// take gives id a slot, the last one freed if any, on shard 0.
func (m *slots) take(id int32) {
	var s int32
	if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
		m.ids[s], m.shard[s] = id, 0
	} else {
		s = int32(len(m.ids))
		m.ids = append(m.ids, id)
		m.shard = append(m.shard, 0)
	}
	m.of[id] = s + 1
}

// release frees id's slot and returns it.
func (m *slots) release(id int32) int32 {
	s := m.of[id] - 1
	m.of[id] = 0
	m.ids[s] = -1
	m.free = append(m.free, s)
	return s
}

// group renumbers the slots shard by shard, ascending ids within a shard,
// so that each shard's state starts out contiguous in every slot array.
// Only for a table with no free slot whose state is still uniform:
// NewEngine's.
func (m *slots) group() {
	slices.SortFunc(m.ids, func(a, b int32) int {
		return cmp.Or(cmp.Compare(m.shard[m.at(a)], m.shard[m.at(b)]), cmp.Compare(a, b))
	})
	slices.Sort(m.shard)
	for s, id := range m.ids {
		m.of[id] = int32(s) + 1
	}
}

// constraintTable is the engine's state for one kind of capacity
// constraint, nodes or links (DESIGN.md §5). LRGP prices both kinds the
// same way — a price moved by Equation 12 or 13 from a usage sum and a
// capacity — so both keep the same state: the slot table, which gives each
// constraint the plan lists a dense slot, and per slot the arrays below. A
// constraint the plan does not list holds no slot and no state: no flow
// crosses it and its price is 0.
type constraintTable struct {
	slots
	// link is the table's kind: links, else nodes.
	link bool
	// prices and caps are the SoA operands of the price sweeps: flat
	// float64 arrays, so the per-iteration sweep is a branch-light pass over
	// contiguous memory. caps mirrors the Problem capacity of each armed
	// constraint, written by file (NewEngine, Reset*) and SetNodeCapacity,
	// the only supported mutation points.
	prices, caps []float64
	// used caches each slot's usage sum (a node's admission output). A
	// skipped constraint reuses it verbatim — the exact float the skipped
	// recomputation would have produced.
	used []float64
	// forced is set by mutators and re-arms to dirty a constraint whose
	// inputs changed outside Step, and cleared by the recompute it
	// triggers (due); epochs[s] is the iteration slot s's price last moved.
	forced []bool
	epochs []int
	// armed holds a bit per slot, set iff the slot is filed in the armed
	// list of its shard; cand is rearm's scratch mark, clear between calls.
	armed, cand bitset
	// lists[k] is plan shard k's armed slots — what Step sweeps (see rearm)
	// — ascending; a re-arm keeps their storage, so a wake's sorted insert
	// allocates only past the most ever armed.
	lists [][]int32
}

func newTable(n int, link bool) constraintTable {
	return constraintTable{slots: newSlots(n), link: link}
}

// tables returns the engine's two constraint tables, nodes first.
func (e *Engine) tables() [2]*constraintTable { return [2]*constraintTable{&e.nodes, &e.links} }

// flows returns the flows crossing constraint id, ascending.
func (t *constraintTable) flows(ix *model.Index, id int32) []model.FlowID {
	if t.link {
		return ix.FlowsByLink(model.LinkID(id))
	}
	return ix.FlowsByNode(model.NodeID(id))
}

// costs returns the costs on constraint id of the flows crossing it, in
// the order flows lists them.
func (t *constraintTable) costs(ix *model.Index, id int32) []float64 {
	if t.link {
		return ix.FlowCostsByLink(model.LinkID(id))
	}
	return ix.FlowCostsByNode(model.NodeID(id))
}

// capacity returns constraint id's capacity in p.
func (t *constraintTable) capacity(p *model.Problem, id int32) float64 {
	if t.link {
		return p.Links[id].Capacity
	}
	return p.Nodes[id].Capacity
}

// priceVector returns the price of every constraint of the kind, indexed
// by id: 0 for one without a slot.
func (t *constraintTable) priceVector() []float64 {
	return expand(make([]float64, len(t.of)), &t.slots, t.prices)
}

// due reports whether the constraint in slot s recomputes its usage at
// iteration it: something forced it, or a crossing flow's rate changed at
// it. A recompute clears the force.
func (t *constraintTable) due(s int32, crossing []model.FlowID, rateEpoch []int, it int) bool {
	if t.forced[s] {
		t.forced[s] = false
		return true
	}
	for _, i := range crossing {
		if rateEpoch[i] == it {
			return true
		}
	}
	return false
}

// force forces id's next recompute, if the plan lists it: a constraint
// without a slot is not swept, and the re-arm that gives it one forces it.
func (t *constraintTable) force(id int32) {
	if s := t.at(id); s >= 0 {
		t.forced[s] = true
	}
}

// mark marks the slot of each of ids that holds one as a candidate of
// rearm's test.
func mark[ID ~int](t *constraintTable, ids []ID) {
	for _, id := range ids {
		if s := t.at(int32(id)); s >= 0 {
			t.cand.set(s)
		}
	}
}

// file readies slot s for the next Step — no epoch of its own yet, its
// capacity mirror set, its recompute forced — and inserts s into the armed
// list of its shard, which stays ascending: at the end without a search
// when s is the largest, as it is for every slot rearm's ascending drain
// files.
func (t *constraintTable) file(s int32, capacity float64) {
	t.epochs[s], t.caps[s], t.forced[s] = 0, capacity, true
	list := t.lists[t.shard[s]]
	if n := len(list); n == 0 || list[n-1] < s {
		list = append(list, s)
	} else {
		k, _ := slices.BinarySearch(list, s)
		list = slices.Insert(list, k, s)
	}
	t.lists[t.shard[s]] = list
}

// relist brings table t up to the plan's live test and returns how many
// ids it tested: every id t holds, and every id named lists — every id in
// t's range when all — that holds no slot and was not just freed. A held id
// that fails the test (no flow crosses it and its slot holds no price) is
// dropped; the freed slots go on the free list in ascending id order, which
// fixes the slot each newcomer takes. A named id a flow crosses then takes a
// slot, in the order named lists it. An id neither held nor named had no
// flow and price 0 at the last re-plan, no delta since gave it a flow and
// no Step has swept it, so it cannot pass.
func relist[ID ~int](e *Engine, t *constraintTable, named []ID, all bool) int {
	crossed := func(id int32) bool { return len(t.flows(e.ix, id)) != 0 }
	tested := 0
	var dropped []int32
	for s, id := range t.ids {
		if id >= 0 {
			tested++
			if !crossed(id) && t.prices[s] == 0 {
				dropped = append(dropped, id)
			}
		}
	}
	slices.Sort(dropped)
	for _, id := range dropped {
		e.drop(t, id)
	}
	enter := func(id int32) {
		if _, was := slices.BinarySearch(dropped, id); t.at(id) < 0 && !was {
			tested++
			if crossed(id) {
				t.take(id)
			}
		}
	}
	if all {
		for id := range t.of {
			enter(int32(id))
		}
	}
	for _, id := range named {
		enter(int32(id))
	}
	return tested
}

// fit grows every array and bitset of both tables — and with the node
// table nodeBest and the gamma bank — to the slot tables' lengths, each new
// slot in the state of a constraint no flow ever crossed: price 0, nothing
// mirrored or cached, nothing forced, no epoch, not armed, γ at its initial
// value. A freed slot is in that state already (drop).
func (e *Engine) fit() {
	for _, t := range e.tables() {
		n := len(t.ids)
		k := n - len(t.prices)
		if k == 0 {
			continue
		}
		t.prices = append(t.prices, make([]float64, k)...)
		t.caps = append(t.caps, make([]float64, k)...)
		t.used = append(t.used, make([]float64, k)...)
		t.forced = append(t.forced, make([]bool, k)...)
		t.epochs = append(t.epochs, make([]int, k)...)
		t.armed = t.armed.grow(n)
		t.cand = t.cand.grow(n)
		if t == &e.nodes {
			e.nodeBest = append(e.nodeBest, make([]float64, k)...)
			e.gamma.grow(k)
		}
	}
}

// drop frees the slot of id, which has left the plan — no flow crosses it
// and its price is 0 — and returns the slot to the state fit promises. No
// path view holds it: the flows that left id were a routing delta's, and
// that delta's re-arm rebuilt their views. Nothing observable is lost: a
// node without a slot reports the initial γ, and a dropped node's γ is
// there already — the delta that took its last flow reseeded it, and with
// no flow its gap never changes sign, so the controller can only climb back
// to the ceiling. The reseed clears the rest of its controller state.
func (e *Engine) drop(t *constraintTable, id int32) {
	s := t.release(id)
	t.prices[s], t.caps[s], t.used[s], t.forced[s], t.epochs[s] = 0, 0, 0, false, 0
	t.armed.take(s)
	if t == &e.nodes {
		e.nodeBest[s] = 0
		e.gamma.reseed(int(s))
	}
}
