package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// Class shapes of TestPublishLoopsMatchReference, one of each per flow.
const (
	// shapeBare never gets a filters array: the unfiltered loop.
	shapeBare = iota
	// shapeNilFilters holds a filters array of nil entries only (its one
	// filtered consumer attached, then detached): the filtered loop with
	// nothing to evaluate.
	shapeNilFilters
	// shapeMixed mixes real filters with unfiltered consumers.
	shapeMixed
	// shapeThinned is capped by a thinner; odd seeds filter it too.
	shapeThinned
	shapes
)

// refConsumer is one consumer as the reference sees it.
type refConsumer struct {
	id      ConsumerID
	l       label
	filter  Filter // nil passes everything
	handler bool   // false: attached with a nil handler
}

// refClass is what the reference tracks of a class: its consumers in
// attach order, how many of them are admitted, a twin of its thinner
// driven by the same clock, and the counters ClassStats must report.
type refClass struct {
	consumers                    []refConsumer
	admitted                     int
	thinner                      *TokenBucket
	delivered, filtered, thinned uint64
}

// call is one handler invocation: who was called, with which message.
type call struct {
	l   label
	seq uint64
}

// TestPublishLoopsMatchReference holds Publish's two delivery loops to
// each other: over seeded attach, detach, enact and publish sequences on
// classes without a filters array (the unfiltered loop), with one of nil
// entries only, with mixed real filters and thinned by a rate cap, nil
// handlers included, every publish calls exactly the handlers a reference
// computed from attach order calls, in the same order, and moves
// ClassStats, WorkUnits and the telemetry counters by what the reference
// counts: one filter evaluation per admitted consumer, MatchAll or not,
// and one delivery per consumer that passes, called or nil.
func TestPublishLoopsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkPublishLoops(t, seed) })
	}
}

func checkPublishLoops(t *testing.T, seed int64) {
	const flows = 3
	rng := rand.New(rand.NewSource(seed))
	p := gridProblem(flows, shapes) // class j of a flow has shape j % shapes
	shapeOf := func(j int) int { return j % shapes }
	ix := model.NewIndex(p)

	now := time.Unix(0, 0)
	reg := telemetry.NewRegistry()
	br, err := New(p, WithClock(func() time.Time { return now }), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]refClass, len(p.Classes))
	var calls []call
	next := label(0)

	attach := func(j int, f Filter, handler bool) {
		l := next
		next++
		var h Handler
		if handler {
			h = func(m Message) { calls = append(calls, call{l, m.Seq}) }
		}
		id, err := br.AttachConsumer(model.ClassID(j), f, h)
		if err != nil {
			t.Fatal(err)
		}
		if _, all := f.(MatchAll); all {
			f = nil
		}
		ref[j].consumers = append(ref[j].consumers, refConsumer{id, l, f, handler})
	}
	detach := func(j, k int) {
		rc := &ref[j]
		if err := br.DetachConsumer(rc.consumers[k].id); err != nil {
			t.Fatal(err)
		}
		rc.consumers = slices.Delete(rc.consumers, k, k+1)
		if k < rc.admitted {
			rc.admitted--
		}
	}
	// randomFilter returns what a consumer of class j filters by: nothing
	// or MatchAll (both stored as nil), or, in a filtering class, a real
	// filter about half the time.
	randomFilter := func(j int) Filter {
		s := shapeOf(j)
		if s == shapeMixed || (s == shapeThinned && seed%2 == 1) {
			if rng.Intn(2) == 0 {
				return AttrFilter{Attr: "x", Op: CmpGT, Value: float64(rng.Intn(10))}
			}
		}
		if rng.Intn(2) == 0 {
			return MatchAll{}
		}
		return nil
	}
	enact := func() {
		a := model.NewAllocation(p)
		for i := range a.Rates {
			a.Rates[i] = 1e9 // the source buckets never throttle
		}
		for j := range a.Consumers {
			a.Consumers[j] = rng.Intn(len(ref[j].consumers) + 2)
			ref[j].admitted = min(a.Consumers[j], len(ref[j].consumers))
		}
		if err := br.ApplyAllocation(a); err != nil {
			t.Fatal(err)
		}
	}

	// Set-up: every class starts with a few consumers; the nil-filters
	// class gets its array from a filtered consumer that then leaves, and
	// the filtering ones from a real filter that may leave later (an
	// array, once made, stays).
	for j := range p.Classes {
		switch s := shapeOf(j); {
		case s == shapeNilFilters:
			attach(j, AttrFilter{Attr: "x", Op: CmpLT, Value: 5}, true)
		case s == shapeMixed || (s == shapeThinned && seed%2 == 1):
			attach(j, AttrFilter{Attr: "x", Op: CmpGE, Value: 5}, true)
		}
		for k := 0; k < 3; k++ {
			attach(j, randomFilter(j), rng.Intn(4) != 0)
		}
		if shapeOf(j) == shapeNilFilters {
			detach(j, 0)
		}
		if shapeOf(j) == shapeThinned {
			const capRate = 3 // per second; publishes are 100 ms apart
			if err := br.SetClassRateCap(model.ClassID(j), capRate); err != nil {
				t.Fatal(err)
			}
			ref[j].thinner = NewTokenBucket(capRate, 0, now)
		}
	}
	enact()

	var work, published, delivered, filtered, thinned uint64
	seqs := make([]uint64, flows) // each flow's last sequence number
	// loopRuns counts, per shape, the publishes that walked a class of that
	// shape with at least one admitted consumer.
	var loopRuns [shapes]int
	publish := func() {
		now = now.Add(100 * time.Millisecond)
		flow := model.FlowID(rng.Intn(flows))
		attrs := map[string]float64{"x": float64(rng.Intn(10))}
		msg := Message{Flow: flow, Attrs: attrs}
		seqs[flow]++
		var want []call
		w := uint64(1)
		fanout := 0
		for _, cid := range ix.ClassesByFlow(flow) {
			rc := &ref[cid]
			if rc.admitted == 0 {
				continue
			}
			if rc.thinner != nil && !rc.thinner.Allow(now) {
				rc.thinned++
				thinned++
				continue
			}
			loopRuns[shapeOf(int(cid))]++
			w++
			for _, c := range rc.consumers[:rc.admitted] {
				w++
				if c.filter != nil && !c.filter.Match(msg) {
					rc.filtered++
					filtered++
					continue
				}
				w++
				rc.delivered++
				fanout++
				if c.handler {
					want = append(want, call{c.l, seqs[flow]})
				}
			}
		}
		calls = calls[:0]
		if err := br.Publish(flow, attrs, "m"); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(calls, want) {
			t.Fatalf("publish on flow %d called %v, want %v", flow, calls, want)
		}
		work += w
		published++
		delivered += uint64(fanout)
		if got := br.WorkUnits(); got != work {
			t.Fatalf("WorkUnits = %d, want %d", got, work)
		}
		for j := range ref {
			st, err := br.ClassStats(model.ClassID(j))
			if err != nil {
				t.Fatal(err)
			}
			rc := &ref[j]
			if st.Delivered != rc.delivered || st.Filtered != rc.filtered || st.Thinned != rc.thinned {
				t.Fatalf("class %d (shape %d) delivered/filtered/thinned = %d/%d/%d, want %d/%d/%d",
					j, shapeOf(j), st.Delivered, st.Filtered, st.Thinned, rc.delivered, rc.filtered, rc.thinned)
			}
		}
		m := scrapeOf(reg)
		if count, sum := m.histogram("lrgp_broker_fanout"); m.counter("lrgp_broker_published_total") != published ||
			m.counter("lrgp_broker_delivered_total") != delivered || m.counter("lrgp_broker_filtered_total") != filtered ||
			m.counter("lrgp_broker_thinned_total") != thinned || m.counter("lrgp_broker_work_units_total") != work ||
			count != published || sum != float64(delivered) {
			t.Fatalf("telemetry published/delivered/filtered/thinned/work = %d/%d/%d/%d/%d, fanout %d/%g; want %d/%d/%d/%d/%d, %d/%d",
				m.counter("lrgp_broker_published_total"), m.counter("lrgp_broker_delivered_total"),
				m.counter("lrgp_broker_filtered_total"), m.counter("lrgp_broker_thinned_total"),
				m.counter("lrgp_broker_work_units_total"), count, sum, published, delivered, filtered, thinned, work, published, delivered)
		}
	}
	// checkShapes fails unless every class still has the filters array its
	// shape stands for: the reference would be testing the wrong loop.
	checkShapes := func() {
		br.mu.Lock()
		defer br.mu.Unlock()
		for j := range br.classes {
			filters := br.classes[j].filters
			s := shapeOf(j)
			wantArray := s == shapeNilFilters || s == shapeMixed || (s == shapeThinned && seed%2 == 1)
			if (filters != nil) != wantArray {
				t.Fatalf("class %d (shape %d) has filters array %v, want one: %v", j, s, filters, wantArray)
			}
			if s == shapeNilFilters && slices.IndexFunc(filters, func(f Filter) bool { return f != nil }) >= 0 {
				t.Fatalf("class %d holds a filter, want nil entries only", j)
			}
		}
	}

	checkShapes()
	for op := 0; op < 400; op++ {
		j := rng.Intn(len(p.Classes))
		switch r := rng.Intn(10); {
		case r < 5:
			publish()
		case r < 7:
			if len(ref[j].consumers) < 40 {
				attach(j, randomFilter(j), rng.Intn(4) != 0)
			}
		case r < 9:
			if n := len(ref[j].consumers); n > 0 {
				detach(j, rng.Intn(n))
			}
		default:
			enact()
		}
		checkShapes()
	}
	for s, n := range loopRuns {
		if n == 0 {
			t.Errorf("no publish delivered through a class of shape %d; runs per shape %v", s, loopRuns)
		}
	}
}
