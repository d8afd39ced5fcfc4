package broker

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/model"
)

// These tests pin the cost and the safety of prefix-shared route
// snapshots (the rule at the top of enact.go) without reading a clock.

// label is a filter that passes everything and names one consumer.
type label int

func (label) Match(Message) bool { return true }

func (l label) String() string { return "label " + strconv.Itoa(int(l)) }

// tagged is where a tag handler writes its label when called.
var tagged label

// tag returns a handler that names one consumer: calling it stores l in
// tagged. A snapshot entry carries no ID, so tests that must tell
// consumers apart attach each with a tag of its own and call it back,
// whether or not its class has filters.
func tag(l label) Handler { return func(Message) { tagged = l } }

// names returns who the consumers of handlers and filters are, in order:
// each one's tag and its filter, if it has one. A consumer without a
// filter reads the same whether its class has a filters array or not; an
// array of the wrong length names itself.
func names(handlers []Handler, filters []Filter) []string {
	if filters != nil && len(filters) != len(handlers) {
		return []string{fmt.Sprintf("%d filters beside %d handlers", len(filters), len(handlers))}
	}
	out := make([]string, len(handlers))
	for k, h := range handlers {
		tagged = -1
		h(Message{})
		out[k] = tagged.String()
		if filters != nil && filters[k] != nil {
			out[k] += fmt.Sprintf(" filtered by %v", filters[k])
		}
	}
	return out
}

// named returns names of consumers ls as gridBroker attaches them to a
// class with filters: tagged and filtered by their labels.
func named(ls ...label) []string {
	handlers := make([]Handler, len(ls))
	filters := make([]Filter, len(ls))
	for k, l := range ls {
		handlers[k], filters[k] = tag(l), l
	}
	return names(handlers, filters)
}

// classRouteOf returns class j's entry in the published snapshot, nil when
// the class is not deliverable.
func classRouteOf(br *Broker, j model.ClassID) *classRoute {
	for _, cr := range br.route.Load().flowRoutes(br.p.Classes[j].Flow) {
		if cr.counters == &br.classes[j].counters {
			return cr
		}
	}
	return nil
}

// checkClassRoutes asserts that every class's classState.route is the
// entry the published snapshot carries for it, or nil when it carries
// none.
func checkClassRoutes(t *testing.T, br *Broker, op string) {
	t.Helper()
	br.mu.Lock()
	defer br.mu.Unlock()
	for j := range br.classes {
		cs := &br.classes[j]
		if got, want := cs.route, classRouteOf(br, model.ClassID(j)); got != want {
			t.Fatalf("%s: class %d holds route %p, the snapshot carries %p", op, j, got, want)
		}
		if cs.filters != nil && (len(cs.filters) != len(cs.handlers) || cap(cs.filters) != cap(cs.handlers)) {
			t.Fatalf("%s: class %d holds %d/%d filters beside %d/%d handlers (len/cap)",
				op, j, len(cs.filters), cap(cs.filters), len(cs.handlers), cap(cs.handlers))
		}
	}
}

// TestEnactCostIndependentOfClassSize: an ApplyAllocation that moves n_j
// by one on four classes allocates the same number of objects and bytes
// whether every class holds 10 consumers or 1,000 — the enact pays for
// the admissions it moved, not for the consumers it kept.
func TestEnactCostIndependentOfClassSize(t *testing.T) {
	const runs = 200
	cost := func(perClass int) (objects float64, bytes uint64) {
		br, alloc := gridBroker(t, 8, 5, perClass, perClass/2)
		moved := []int{0, 7, 21, 38} // four classes in four flows
		i := 0
		enact := func() {
			i++
			for _, j := range moved {
				alloc.Consumers[j] = perClass/2 + i%2
			}
			if err := br.ApplyAllocation(alloc); err != nil {
				t.Fatal(err)
			}
		}
		objects = testing.AllocsPerRun(runs, enact)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 0; k < runs; k++ {
			enact()
		}
		runtime.ReadMemStats(&m1)
		return objects, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	smallObjects, smallBytes := cost(10)
	largeObjects, largeBytes := cost(1000)
	if smallObjects != largeObjects || smallBytes != largeBytes {
		t.Errorf("enact of 4 classes: %g objects / %d B at 10 consumers per class, %g objects / %d B at 1,000; want equal",
			smallObjects, smallBytes, largeObjects, largeBytes)
	}
	// Four dirty flows in two blocks: the table, the block array, two
	// block clones, the entry slab and the pointer slab.
	if smallObjects > 8 {
		t.Errorf("enact of 4 classes in 4 flows allocated %g objects, want <= 8", smallObjects)
	}
}

// TestDetachCostIndependentOfFlowWidth: detaching an admitted consumer
// rebuilds one class entry whether its flow carries 4 deliverable classes
// or 40. Only the flow's list of entry pointers follows its width, at
// one pointer per class; the allocation count is the same, and so are
// the bytes beyond that list.
func TestDetachCostIndependentOfFlowWidth(t *testing.T) {
	const detaches = 32
	cost := func(width int) (objects, bytes uint64) {
		br, _ := gridBroker(t, 8, width, 2*detaches, 2*detaches)
		cs := &br.classes[3*width+1] // a class of flow 3
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 0; k < detaches; k++ {
			if err := br.DetachConsumer(cs.ids[0]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		if cs.admitted != detaches {
			t.Fatalf("width %d: %d admitted after %d detaches, want %d", width, cs.admitted, detaches, detaches)
		}
		return (m1.Mallocs - m0.Mallocs) / detaches, (m1.TotalAlloc - m0.TotalAlloc) / detaches
	}
	ptr := uint64(unsafe.Sizeof((*classRoute)(nil)))
	narrowObjects, narrowBytes := cost(4)
	wideObjects, wideBytes := cost(40)
	if narrowObjects != wideObjects || wideBytes-40*ptr != narrowBytes-4*ptr {
		t.Errorf("admitted detach: %d objects / %d B in a 4-class flow, %d objects / %d B in a 40-class flow; "+
			"want the same objects and the same bytes beyond one %d-byte pointer per class",
			narrowObjects, narrowBytes, wideObjects, wideBytes, ptr)
	}
}

// TestGrowShrinkSharesConsumerArray: growing and shrinking a class's
// admission copies no consumer — before and after, the published entry's
// handlers, and its filters when the class has them, are prefixes of the
// control plane's own arrays.
func TestGrowShrinkSharesConsumerArray(t *testing.T) {
	br, alloc := gridBroker(t, 4, 3, 20, 10)
	for _, j := range []model.ClassID{4, 5} { // without filters, with
		cs := &br.classes[j]
		handlers := &cs.handlers[0]
		for _, want := range []int{15, 20, 3, 11} {
			alloc.Consumers[j] = want
			if err := br.ApplyAllocation(alloc); err != nil {
				t.Fatal(err)
			}
			cr := classRouteOf(br, j)
			if cr == nil || len(cr.handlers) != want {
				t.Fatalf("class %d n=%d: published entry %+v, want %d consumers", j, want, cr, want)
			}
			if &cr.handlers[0] != handlers || &cs.handlers[0] != handlers {
				t.Errorf("class %d n=%d: the published prefix does not share the class's handler array", j, want)
			}
			if cap(cr.handlers) != want {
				t.Errorf("class %d n=%d: published prefix has capacity %d; an append through it could reach past the prefix", j, want, cap(cr.handlers))
			}
			switch {
			case (cr.filters != nil) != (j%2 == 1):
				t.Errorf("class %d n=%d: published filters %v, want them only on an odd class", j, want, cr.filters)
			case cr.filters != nil && (&cr.filters[0] != &cs.filters[0] || cap(cr.filters) != want):
				t.Errorf("class %d n=%d: published filters are not the %d-capacity prefix of the class's own", j, want, want)
			}
		}
	}
	// A clean class of the same (dirty) flow is republished as the same
	// prefixes of the same arrays.
	cs := &br.classes[3]
	if cr := classRouteOf(br, 3); len(cr.handlers) != 10 || &cr.handlers[0] != &cs.handlers[0] || &cr.filters[0] != &cs.filters[0] {
		t.Error("clean class of a dirty flow lost its shared prefixes")
	}
}

// TestDetachClearsVacatedSlot: removing a consumer must not leave the
// class's backing arrays holding a dead consumer's handler or filter past
// their length, whether the tails shifted in place (last-attached, never
// admitted) or the class moved to fresh arrays (detach inside a published
// prefix, with the filters array present). Consumers are told apart by
// their tags.
func TestDetachClearsVacatedSlot(t *testing.T) {
	br, _ := gridBroker(t, 2, 2, 8, 4)
	cs := &br.classes[1]
	assertTailNil := func(op string) {
		t.Helper()
		handlers, filters := cs.handlers[:cap(cs.handlers)], cs.filters[:cap(cs.filters)]
		for k := len(cs.handlers); k < len(handlers); k++ {
			if handlers[k] != nil || filters[k] != nil {
				t.Errorf("%s: slot %d past len %d still holds a consumer filtered by %v", op, k, len(cs.handlers), filters[k])
			}
		}
	}
	handlers, filters := &cs.handlers[0], &cs.filters[0]
	stayed := func() bool { return &cs.handlers[0] == handlers && &cs.filters[0] == filters }
	if err := br.DetachConsumer(cs.ids[7]); err != nil {
		t.Fatal(err)
	}
	if !stayed() {
		t.Error("detach of the last-attached, never-admitted consumer moved the class to new arrays")
	}
	assertTailNil("detach last-attached")

	if err := br.DetachConsumer(cs.ids[5]); err != nil { // unadmitted, mid-tail
		t.Fatal(err)
	}
	if !stayed() {
		t.Error("detach beyond the published prefix moved the class to new arrays")
	}
	assertTailNil("detach beyond prefix")

	old := classRouteOf(br, 1)
	want := names(old.handlers, old.filters)
	if err := br.DetachConsumer(cs.ids[1]); err != nil { // admitted
		t.Fatal(err)
	}
	if &cs.handlers[0] == handlers || &cs.filters[0] == filters {
		t.Error("detach inside the published prefix shifted a shared array in place")
	}
	assertTailNil("detach inside prefix")
	if got := names(old.handlers, old.filters); !slices.Equal(got, want) {
		t.Errorf("detach inside the published prefix overwrote the predecessor snapshot: %v, published as %v", got, want)
	}
	if cr := classRouteOf(br, 1); len(cr.handlers) != 3 || &cr.handlers[0] != &cs.handlers[0] || &cr.filters[0] != &cs.filters[0] {
		t.Error("after the copy the published entry is not a prefix of the fresh arrays")
	}
	// Class 1's labels run 8..15 in attach order; 15, 13 and 9 left.
	if got, want := names(cs.handlers, cs.filters), named(8, 10, 11, 12, 14); !slices.Equal(got, want) {
		t.Errorf("class 1 holds %v after three detaches, want %v", got, want)
	}
}

// TestDetachBehindHighWaterCopies: after a shrink, an old snapshot still
// reaches past the admitted count; a detach between the two must treat
// the element as published, in a class without filters and in one with.
func TestDetachBehindHighWaterCopies(t *testing.T) {
	br, alloc := gridBroker(t, 2, 2, 8, 6)
	for _, j := range []model.ClassID{2, 3} {
		cs := &br.classes[j]
		old := classRouteOf(br, j) // 6 long
		want := names(old.handlers, old.filters)
		alloc.Consumers[j] = 2
		if err := br.ApplyAllocation(alloc); err != nil {
			t.Fatal(err)
		}
		if err := br.DetachConsumer(cs.ids[4]); err != nil { // unadmitted now, published before
			t.Fatal(err)
		}
		if got := names(old.handlers, old.filters); !slices.Equal(got, want) {
			t.Fatalf("class %d: detach at index 4 overwrote a snapshot published 6 long: %v, published as %v", j, got, want)
		}
	}
}

// sideArrayCases counts how often the property tests reached the cases of
// the filters side array that a random op mix could miss.
type sideArrayCases struct {
	// LateFilters counts first filtered consumers attached to a class
	// whose handler array snapshots already share.
	LateFilters int
	// PrefixDetaches counts detaches inside a class's published prefix,
	// [0] in a class without filters and [1] in one with both arrays.
	PrefixDetaches [2]int
}

// attach attaches consumer l to class j with handler tag(l), into the
// three kinds of class the layout has: j%3 == 0 filters every consumer by
// its label, j%3 == 1 never filters (MatchAll, stored as nil), and
// j%3 == 2 filters every even label from step late on. That class's first
// filtered consumer waits until snapshots share the class's handler array
// and the attach will not grow it, so its filters array starts beside an
// array snapshots read.
func (c *sideArrayCases) attach(br *Broker, j model.ClassID, l label, late int) (ConsumerID, error) {
	br.mu.Lock()
	cs := &br.classes[j]
	var f Filter = MatchAll{}
	switch {
	case j%3 == 0:
		f = l
	case j%3 == 2 && int(l) >= late && l%2 == 0:
		shared := cs.published > 0 && len(cs.handlers) < cap(cs.handlers)
		if cs.filters == nil && shared {
			c.LateFilters++
		}
		if cs.filters != nil || shared {
			f = l
		}
	}
	br.mu.Unlock()
	return br.AttachConsumer(j, f, tag(l))
}

// detach notes a consumer about to be detached.
func (c *sideArrayCases) detach(br *Broker, id ConsumerID) {
	br.mu.Lock()
	defer br.mu.Unlock()
	if cs, _, k, err := br.findLocked(id); err == nil && k < cs.published {
		if cs.filters == nil {
			c.PrefixDetaches[0]++
		} else {
			c.PrefixDetaches[1]++
		}
	}
}

func (c *sideArrayCases) check(t *testing.T) {
	t.Helper()
	t.Logf("side-array cases reached: %+v", *c)
	if c.LateFilters == 0 || c.PrefixDetaches[0] == 0 || c.PrefixDetaches[1] == 0 {
		t.Errorf("op mix reached %+v; want every case at least once", *c)
	}
}

// TestPublishedPrefixesNeverChange is the sharing rule's property test:
// across random attach, detach, enact and rate-cap operations, every
// snapshot ever published still lists exactly the consumers it listed
// when it was stored (each attached with a tag of its own, in the three
// kinds of class of sideArrayCases.attach), and after every operation each class's
// route is the entry the latest snapshot carries for it.
func TestPublishedPrefixesNeverChange(t *testing.T) {
	p := stressProblem(4)
	br, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	type frozen struct {
		rt   *routeTable
		want [][][]string // [flow][route] → consumer names at store time
	}
	freeze := func(rt *routeTable) frozen {
		f := frozen{rt: rt, want: make([][][]string, len(p.Flows))}
		for i := range p.Flows {
			for _, cr := range rt.flowRoutes(model.FlowID(i)) {
				f.want[i] = append(f.want[i], names(cr.handlers, cr.filters))
			}
		}
		return f
	}
	rng := rand.New(rand.NewSource(13))
	var (
		live      []ConsumerID
		cases     sideArrayCases
		snapshots = []frozen{freeze(br.route.Load())}
	)
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			id, err := cases.attach(br, model.ClassID(rng.Intn(len(p.Classes))), label(step), 1500)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 7 && len(live) > 0:
			k := rng.Intn(len(live))
			cases.detach(br, live[k])
			if err := br.DetachConsumer(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 9:
			alloc := model.NewAllocation(p)
			for i := range alloc.Rates {
				alloc.Rates[i] = 1e9
			}
			for j := range alloc.Consumers {
				alloc.Consumers[j] = rng.Intn(12)
			}
			if err := br.ApplyAllocation(alloc); err != nil {
				t.Fatal(err)
			}
		default:
			if err := br.SetClassRateCap(model.ClassID(rng.Intn(len(p.Classes))), float64(rng.Intn(2))*1e9); err != nil {
				t.Fatal(err)
			}
		}
		checkClassRoutes(t, br, "step")
		if rt := br.route.Load(); rt != snapshots[len(snapshots)-1].rt {
			snapshots = append(snapshots, freeze(rt))
		}
	}
	if len(snapshots) < 500 {
		t.Fatalf("only %d snapshots were published; the op mix is not exercising the enact path", len(snapshots))
	}
	cases.check(t)
	for n, f := range snapshots {
		for i := range p.Flows {
			routes := f.rt.flowRoutes(model.FlowID(i))
			if len(routes) != len(f.want[i]) {
				t.Fatalf("snapshot %d flow %d: %d routes, stored with %d", n, i, len(routes), len(f.want[i]))
			}
			for r, cr := range routes {
				if got := names(cr.handlers, cr.filters); !slices.Equal(got, f.want[i][r]) {
					t.Fatalf("snapshot %d flow %d route %d: consumers %v, stored as %v", n, i, r, got, f.want[i][r])
				}
			}
		}
	}
}
