package core

// slots numbers the constraints of one kind (nodes or links) the stage plan
// lists, densely, so the engine's per-constraint state is sized by the plan,
// not by the overlay (DESIGN.md §5). A slot is stable: it is taken when its
// constraint enters the plan and freed when it leaves, and a freed slot is
// reused before the storage grows, so the storage never outgrows the most
// constraints the plan has listed at once.
type slots struct {
	// of[id] is id's slot + 1, 0 when the plan does not list id; ids[s] is
	// the id holding slot s, -1 when s is free; free lists the free slots.
	of   []int32
	ids  []int32
	free []int32
}

func newSlots(n int) slots { return slots{of: make([]int32, n)} }

// at returns id's slot, -1 when the plan does not list id.
func (m *slots) at(id int32) int32 { return m.of[id] - 1 }

// take gives id a slot, the last one freed if any; grew reports a new slot
// at the end of the storage.
func (m *slots) take(id int32) (s int32, grew bool) {
	if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
		m.ids[s] = id
	} else {
		s, grew = int32(len(m.ids)), true
		m.ids = append(m.ids, id)
	}
	m.of[id] = s + 1
	return s, grew
}

// release frees id's slot and returns it.
func (m *slots) release(id int32) int32 {
	s := m.of[id] - 1
	m.of[id] = 0
	m.ids[s] = -1
	m.free = append(m.free, s)
	return s
}

// addNode gives node b a slot, in the state of a node no flow ever crossed:
// price 0, nothing cached, nothing forced, not armed, γ at its initial
// value. A freed slot is in that state already (dropNode); a new one grows
// every node array by one.
func (e *Engine) addNode(b int32) {
	if _, grew := e.nodeSlots.take(b); !grew {
		return
	}
	e.nodePrices = append(e.nodePrices, 0)
	e.nodeCap = append(e.nodeCap, 0)
	e.nodeForced = append(e.nodeForced, false)
	e.nodePriceEpoch = append(e.nodePriceEpoch, 0)
	e.nodeUsed = append(e.nodeUsed, 0)
	e.nodeBest = append(e.nodeBest, 0)
	e.gamma.add()
	e.nodeArmed = e.nodeArmed.grow(len(e.nodePrices))
	e.candNodes = e.candNodes.grow(len(e.nodePrices))
}

// addLink is addNode for link l.
func (e *Engine) addLink(l int32) {
	if _, grew := e.linkSlots.take(l); !grew {
		return
	}
	e.linkPrices = append(e.linkPrices, 0)
	e.linkCap = append(e.linkCap, 0)
	e.linkForced = append(e.linkForced, false)
	e.linkPriceEpoch = append(e.linkPriceEpoch, 0)
	e.linkUsed = append(e.linkUsed, 0)
	e.linkArmed = e.linkArmed.grow(len(e.linkPrices))
	e.candLinks = e.candLinks.grow(len(e.linkPrices))
}

// dropNode frees the slot of node b, which has left the plan — no flow
// crosses it and its price is 0 — and returns the slot to the state addNode
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

// nodePriced and linkPriced report whether a node or link holds a price —
// the plan's live test (newStagePlan).
func (e *Engine) nodePriced(b int32) bool {
	s := e.nodeSlots.at(b)
	return s >= 0 && e.nodePrices[s] != 0
}

func (e *Engine) linkPriced(l int32) bool {
	s := e.linkSlots.at(l)
	return s >= 0 && e.linkPrices[s] != 0
}
