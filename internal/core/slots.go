package core

import (
	"cmp"
	"slices"
)

// slots numbers the constraints of one kind (nodes or links) the stage plan
// lists, densely, so the engine's per-constraint state is sized by the plan,
// not by the overlay (DESIGN.md §5). The table is the plan's record of which
// constraints it lists, and each slot carries its plan shard. A slot is
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

// mark sets the bit of every held slot in c.
func (m *slots) mark(c bitset) {
	for s, id := range m.ids {
		if id >= 0 {
			c.set(int32(s))
		}
	}
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

// relist brings slot table m up to the plan's live test and returns how many
// ids it tested: every id m holds, and every id named lists — every id in
// m's range when all — that holds no slot and was not just freed. A held id
// that fails the test (no flow crosses it, and priced says its slot holds no
// price) is dropped; the freed slots go on the free list in ascending id
// order, which fixes the slot each newcomer takes. A named id a flow crosses
// then takes a slot, in the order named lists it. An id neither held nor
// named had no flow and price 0 at the last re-plan, no delta since gave it
// a flow and no Step has swept it, so it cannot pass.
func relist[ID ~int](m *slots, named []ID, all bool, crossed func(id int32) bool, priced func(s int32) bool, drop func(id int32)) int {
	tested := 0
	var dropped []int32
	for s, id := range m.ids {
		if id >= 0 {
			tested++
			if !crossed(id) && !priced(int32(s)) {
				dropped = append(dropped, id)
			}
		}
	}
	slices.Sort(dropped)
	for _, id := range dropped {
		drop(id)
	}
	enter := func(id int32) {
		if _, was := slices.BinarySearch(dropped, id); m.at(id) < 0 && !was {
			tested++
			if crossed(id) {
				m.take(id)
			}
		}
	}
	if all {
		for id := range m.of {
			enter(int32(id))
		}
	}
	for _, id := range named {
		enter(int32(id))
	}
	return tested
}

// fitNodes grows every node array, the gamma bank and the node bitsets to
// the slot table's length, each new slot in the state of a node no flow
// ever crossed: price 0, nothing cached, nothing forced, not armed, γ at its
// initial value. A freed slot is in that state already (dropNode).
func (e *Engine) fitNodes() {
	n := len(e.nodeSlots.ids)
	k := n - len(e.nodePrices)
	if k == 0 {
		return
	}
	e.nodePrices = append(e.nodePrices, make([]float64, k)...)
	e.nodeCap = append(e.nodeCap, make([]float64, k)...)
	e.nodeForced = append(e.nodeForced, make([]bool, k)...)
	e.nodePriceEpoch = append(e.nodePriceEpoch, make([]int, k)...)
	e.nodeUsed = append(e.nodeUsed, make([]float64, k)...)
	e.nodeBest = append(e.nodeBest, make([]float64, k)...)
	e.gamma.grow(k)
	e.nodeArmed = e.nodeArmed.grow(n)
	e.candNodes = e.candNodes.grow(n)
}

// fitLinks is fitNodes for the link arrays.
func (e *Engine) fitLinks() {
	n := len(e.linkSlots.ids)
	k := n - len(e.linkPrices)
	if k == 0 {
		return
	}
	e.linkPrices = append(e.linkPrices, make([]float64, k)...)
	e.linkCap = append(e.linkCap, make([]float64, k)...)
	e.linkForced = append(e.linkForced, make([]bool, k)...)
	e.linkPriceEpoch = append(e.linkPriceEpoch, make([]int, k)...)
	e.linkUsed = append(e.linkUsed, make([]float64, k)...)
	e.linkArmed = e.linkArmed.grow(n)
	e.candLinks = e.candLinks.grow(n)
}

// dropNode frees the slot of node b, which has left the plan — no flow
// crosses it and its price is 0 — and returns the slot to the state fitNodes
// promises. No path view holds it: the flows that left b were a routing
// delta's, and that delta's re-arm rebuilt their views. Nothing observable
// is lost: Gammas reports the initial γ for a node without a slot, and b's
// γ is there already — the delta that took b's last flow reseeded it, and
// with no flow its gap never changes sign, so the controller can only climb
// back to the ceiling. The reseed clears the rest of its controller state.
func (e *Engine) dropNode(b int32) {
	s := e.nodeSlots.release(b)
	e.nodePrices[s], e.nodeCap[s], e.nodeForced[s], e.nodePriceEpoch[s] = 0, 0, false, 0
	e.nodeUsed[s], e.nodeBest[s] = 0, 0
	e.gamma.reseed(int(s))
	e.nodeArmed.take(s)
}

// dropLink is dropNode for link l.
func (e *Engine) dropLink(l int32) {
	s := e.linkSlots.release(l)
	e.linkPrices[s], e.linkCap[s], e.linkForced[s], e.linkPriceEpoch[s], e.linkUsed[s] = 0, 0, false, 0, 0
	e.linkArmed.take(s)
}
