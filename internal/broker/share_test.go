package broker

import (
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

// label is a filter that passes everything and names one consumer. A
// snapshot entry carries no ID, so tests that must tell consumers apart
// attach each with a distinct label and read it back from the entry's
// filter.
type label int

func (label) Match(Message) bool { return true }

func (l label) String() string { return "label " + strconv.Itoa(int(l)) }

// labels returns the filters of entries, in order: who they are.
func labels(entries []consumer) []Filter {
	out := make([]Filter, len(entries))
	for k := range entries {
		out[k] = entries[k].filter
	}
	return out
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
		if got, want := br.classes[j].route, classRouteOf(br, model.ClassID(j)); got != want {
			t.Fatalf("%s: class %d holds route %p, the snapshot carries %p", op, j, got, want)
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
// admission copies no consumer pointer — before and after, the published
// entry is a prefix of the control plane's own array.
func TestGrowShrinkSharesConsumerArray(t *testing.T) {
	br, alloc := gridBroker(t, 4, 3, 20, 10)
	const j = 4
	array := &br.classes[j].consumers[0]
	for _, want := range []int{15, 20, 3, 11} {
		alloc.Consumers[j] = want
		if err := br.ApplyAllocation(alloc); err != nil {
			t.Fatal(err)
		}
		cr := classRouteOf(br, j)
		if cr == nil || len(cr.consumers) != want {
			t.Fatalf("n=%d: published entry %+v, want %d consumers", want, cr, want)
		}
		if &cr.consumers[0] != array || &br.classes[j].consumers[0] != array {
			t.Errorf("n=%d: the published prefix does not share the class's consumer array", want)
		}
		if cap(cr.consumers) != want {
			t.Errorf("n=%d: published prefix has capacity %d; an append through it could reach past the prefix", want, cap(cr.consumers))
		}
	}
	// A clean class of the same (dirty) flow is republished as the same
	// prefix of the same array.
	if cr := classRouteOf(br, 3); len(cr.consumers) != 10 || &cr.consumers[0] != &br.classes[3].consumers[0] {
		t.Error("clean class of a dirty flow lost its shared prefix")
	}
}

// TestDetachClearsVacatedSlot: removing a consumer must not leave the
// class's backing array holding a dead consumer's filter or handler past
// its length, whether the tail shifted in place (last-attached, never
// admitted) or the class moved to a fresh array (detach inside a
// published prefix). Consumers are told apart by their labels.
func TestDetachClearsVacatedSlot(t *testing.T) {
	br, _ := gridBroker(t, 2, 2, 8, 4)
	cs := &br.classes[1]
	assertTailNil := func(op string) {
		t.Helper()
		full := cs.consumers[:cap(cs.consumers)]
		for k := len(cs.consumers); k < len(full); k++ {
			if full[k].filter != nil || full[k].handler != nil {
				t.Errorf("%s: slot %d past len %d still holds consumer %v", op, k, len(cs.consumers), full[k].filter)
			}
		}
	}
	array := &cs.consumers[0]
	if err := br.DetachConsumer(cs.ids[7]); err != nil {
		t.Fatal(err)
	}
	if &cs.consumers[0] != array {
		t.Error("detach of the last-attached, never-admitted consumer moved the class to a new array")
	}
	assertTailNil("detach last-attached")

	if err := br.DetachConsumer(cs.ids[5]); err != nil { // unadmitted, mid-tail
		t.Fatal(err)
	}
	if &cs.consumers[0] != array {
		t.Error("detach beyond the published prefix moved the class to a new array")
	}
	assertTailNil("detach beyond prefix")

	old := classRouteOf(br, 1).consumers
	want := labels(old)
	if err := br.DetachConsumer(cs.ids[1]); err != nil { // admitted
		t.Fatal(err)
	}
	if &cs.consumers[0] == array {
		t.Error("detach inside the published prefix shifted the shared array in place")
	}
	assertTailNil("detach inside prefix")
	if got := labels(old); !slices.Equal(got, want) {
		t.Errorf("detach inside the published prefix overwrote the predecessor snapshot: %v, published as %v", got, want)
	}
	if cr := classRouteOf(br, 1); len(cr.consumers) != 3 || &cr.consumers[0] != &cs.consumers[0] {
		t.Error("after the copy the published entry is not a prefix of the fresh array")
	}
	// Class 1's labels run 8..15 in attach order; 15, 13 and 9 left.
	if got, want := labels(cs.consumers), []Filter{label(8), label(10), label(11), label(12), label(14)}; !slices.Equal(got, want) {
		t.Errorf("class 1 holds %v after three detaches, want %v", got, want)
	}
}

// TestDetachBehindHighWaterCopies: after a shrink, an old snapshot still
// reaches past the admitted count; a detach between the two must treat
// the element as published.
func TestDetachBehindHighWaterCopies(t *testing.T) {
	br, alloc := gridBroker(t, 2, 2, 8, 6)
	cs := &br.classes[2]
	old := classRouteOf(br, 2).consumers // 6 long
	want := labels(old)
	alloc.Consumers[2] = 2
	if err := br.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}
	if err := br.DetachConsumer(cs.ids[4]); err != nil { // unadmitted now, published before
		t.Fatal(err)
	}
	if got := labels(old); !slices.Equal(got, want) {
		t.Fatalf("detach at index 4 overwrote a snapshot published 6 long: %v, published as %v", got, want)
	}
}

// TestPublishedPrefixesNeverChange is the sharing rule's property test:
// across random attach, detach, enact and rate-cap operations, every
// snapshot ever published still lists exactly the consumers it listed
// when it was stored (each attached with a label of its own), and after
// every operation each class's route is the entry the latest snapshot
// carries for it.
func TestPublishedPrefixesNeverChange(t *testing.T) {
	p := stressProblem(4)
	br, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	type frozen struct {
		rt   *routeTable
		want [][][]Filter // [flow][route] → consumer labels at store time
	}
	freeze := func(rt *routeTable) frozen {
		f := frozen{rt: rt, want: make([][][]Filter, len(p.Flows))}
		for i := range p.Flows {
			for _, cr := range rt.flowRoutes(model.FlowID(i)) {
				f.want[i] = append(f.want[i], labels(cr.consumers))
			}
		}
		return f
	}
	rng := rand.New(rand.NewSource(13))
	var (
		live      []ConsumerID
		snapshots = []frozen{freeze(br.route.Load())}
	)
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			id, err := br.AttachConsumer(model.ClassID(rng.Intn(len(p.Classes))), label(step), nil)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 7 && len(live) > 0:
			k := rng.Intn(len(live))
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
	for n, f := range snapshots {
		for i := range p.Flows {
			routes := f.rt.flowRoutes(model.FlowID(i))
			if len(routes) != len(f.want[i]) {
				t.Fatalf("snapshot %d flow %d: %d routes, stored with %d", n, i, len(routes), len(f.want[i]))
			}
			for r, cr := range routes {
				if len(cr.consumers) != len(f.want[i][r]) {
					t.Fatalf("snapshot %d flow %d route %d: %d consumers, stored with %d", n, i, r, len(cr.consumers), len(f.want[i][r]))
				}
				for k, c := range cr.consumers {
					if c.filter != f.want[i][r][k] {
						t.Fatalf("snapshot %d flow %d route %d: consumer %d is %v, stored as %v",
							n, i, r, k, c.filter, f.want[i][r][k])
					}
				}
			}
		}
	}
}
