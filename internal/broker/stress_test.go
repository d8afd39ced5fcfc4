package broker

import (
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/utility"
)

// stressProblem: `flows` flows, one class per flow plus one extra class
// on flow 0 carrying a mutating transform, so the stress mix covers both
// the Identity fast path and the clone-and-transform path.
func stressProblem(flows int) *model.Problem {
	p := &model.Problem{Name: "stress"}
	for i := 0; i < flows; i++ {
		p.Flows = append(p.Flows, model.Flow{
			ID: model.FlowID(i), Name: "f", Source: model.NodeID(i), RateMin: 10, RateMax: 1e9,
		})
		p.Nodes = append(p.Nodes, model.Node{
			ID: model.NodeID(i), Capacity: 9e9,
			FlowCost: map[model.FlowID]float64{model.FlowID(i): 1},
		})
		p.Classes = append(p.Classes, model.Class{
			ID: model.ClassID(i), Name: "c", Flow: model.FlowID(i), Node: model.NodeID(i),
			MaxConsumers: 64, CostPerConsumer: 1, Utility: utility.NewLog(10),
		})
	}
	p.Classes = append(p.Classes, model.Class{
		ID: model.ClassID(flows), Name: "annotated", Flow: 0, Node: 0,
		MaxConsumers: 64, CostPerConsumer: 1, Utility: utility.NewLog(10),
	})
	return p
}

// TestPublishStressConcurrent hammers Publish from many goroutines over
// several flows while the control plane concurrently churns allocations
// and attaches/detaches consumers. Run under -race this is the data
// plane's main memory-safety proof; the assertions check the snapshot
// semantics: per-flow sequence numbers are dense and duplicate-free, no
// single consumer sees the same (flow, seq) twice, and every counter
// total is exact. A scraper renders the registry throughout (scrapeLoop;
// TestScrapeDuringAutopilotCycles is the test that waits for scrapes to
// overlap the run).
func TestPublishStressConcurrent(t *testing.T) {
	const (
		flows      = 4
		publishers = 8 // goroutines per flow... spread over flows round-robin
		perG       = 2000
	)
	p := stressProblem(flows)
	reg := telemetry.NewRegistry()
	b, err := New(p,
		WithTelemetry(reg),
		WithTransform(model.ClassID(flows), Annotate{Attr: "tag", Value: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Handler-side receipt log: one slice per consumer, guarded by its
	// own mutex (handlers may run concurrently).
	type receipt struct {
		mu   sync.Mutex
		seqs map[model.FlowID][]uint64
	}
	var handlerCalls atomic.Uint64
	newHandler := func() (*receipt, Handler) {
		r := &receipt{seqs: make(map[model.FlowID][]uint64)}
		return r, func(m Message) {
			handlerCalls.Add(1)
			r.mu.Lock()
			r.seqs[m.Flow] = append(r.seqs[m.Flow], m.Seq)
			r.mu.Unlock()
		}
	}

	// Stable population: 4 consumers per class, admitted throughout.
	var receipts []*receipt
	alloc := model.NewAllocation(p)
	for j := range p.Classes {
		for k := 0; k < 4; k++ {
			r, h := newHandler()
			receipts = append(receipts, r)
			if _, err := b.AttachConsumer(model.ClassID(j), nil, h); err != nil {
				t.Fatal(err)
			}
		}
		alloc.Consumers[j] = 4
	}
	for i := range p.Flows {
		alloc.Rates[i] = 1e9
	}
	if err := b.ApplyAllocation(alloc); err != nil {
		t.Fatal(err)
	}

	var pubWG, churnWG sync.WaitGroup
	stop := make(chan struct{})

	// Control-plane churn: re-enact the allocation and churn a transient
	// consumer per class while publishers run. Transient consumers are
	// never admitted (admission stays at the stable 4, which attach-order
	// precedence pins to the stable population), so the delivery
	// assertions below stay exact. The incremental enact path makes the
	// re-enact and the never-admitted churn route no-ops (no snapshot
	// swap), so the loop also toggles a rate cap on the annotated class —
	// far above the offered load, so it never thins — to keep incremental
	// snapshot swaps racing the publishers throughout the run.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var ids []ConsumerID
			for j := range p.Classes {
				id, err := b.AttachConsumer(model.ClassID(j), nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, id)
			}
			if err := b.ApplyAllocation(alloc); err != nil {
				t.Error(err)
				return
			}
			for _, id := range ids {
				if err := b.DetachConsumer(id); err != nil {
					t.Error(err)
					return
				}
			}
			if err := b.SetClassRateCap(model.ClassID(flows), 1e9); err != nil {
				t.Error(err)
				return
			}
			if err := b.SetClassRateCap(model.ClassID(flows), 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	scrapeLoop(t, reg, stop, &churnWG)

	// Publishers: spread over flows, publishing with attrs on the shared
	// map (read-only by contract).
	attrs := map[string]float64{"price": 80}
	var attempts atomic.Uint64
	for g := 0; g < publishers; g++ {
		flow := model.FlowID(g % flows)
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for n := 0; n < perG; n++ {
				attempts.Add(1)
				if err := b.Publish(flow, attrs, "x"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Give the publishers the whole run, then stop the churner.
	done := make(chan struct{})
	go func() { pubWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged")
	}
	close(stop)
	churnWG.Wait()

	// Per-flow sequence: published counter equals goroutine sends, and
	// the seq space is dense 1..Published (every consumer of the flow's
	// class saw every seq exactly once — the stable population was
	// admitted for the entire run).
	perFlowSends := make(map[model.FlowID]uint64)
	for g := 0; g < publishers; g++ {
		perFlowSends[model.FlowID(g%flows)] += perG
	}
	var totalPublished uint64
	for i := 0; i < flows; i++ {
		fs, err := b.FlowStats(model.FlowID(i))
		if err != nil {
			t.Fatal(err)
		}
		if fs.Throttled != 0 {
			t.Errorf("flow %d throttled %d messages; the stress workload must stay under the rate cap", i, fs.Throttled)
		}
		if fs.Published != perFlowSends[model.FlowID(i)] {
			t.Errorf("flow %d published=%d, want %d", i, fs.Published, perFlowSends[model.FlowID(i)])
		}
		totalPublished += fs.Published
	}
	for ci, r := range receipts {
		r.mu.Lock()
		for flow, seqs := range r.seqs {
			seen := make(map[uint64]bool, len(seqs))
			for _, s := range seqs {
				if seen[s] {
					t.Errorf("consumer %d flow %d: duplicate delivery of seq %d", ci, flow, s)
				}
				seen[s] = true
				if s < 1 || s > perFlowSends[flow] {
					t.Errorf("consumer %d flow %d: seq %d out of range 1..%d", ci, flow, s, perFlowSends[flow])
				}
			}
			if uint64(len(seqs)) != perFlowSends[flow] {
				t.Errorf("consumer %d flow %d: received %d of %d messages", ci, flow, len(seqs), perFlowSends[flow])
			}
		}
		r.mu.Unlock()
	}

	// Counter exactness: handler invocations, class counters, telemetry
	// and WorkUnits must all agree. Every flow-0 message fans out
	// to 8 consumers (4 Identity + 4 annotated), other flows to 4.
	var classDelivered uint64
	for j := range p.Classes {
		cs, err := b.ClassStats(model.ClassID(j))
		if err != nil {
			t.Fatal(err)
		}
		classDelivered += cs.Delivered
		if cs.Filtered != 0 || cs.Thinned != 0 {
			t.Errorf("class %d: filtered=%d thinned=%d, want 0/0", j, cs.Filtered, cs.Thinned)
		}
	}
	f0 := perFlowSends[0]
	wantDelivered := 8*f0 + 4*(totalPublished-f0)
	if got := handlerCalls.Load(); got != wantDelivered {
		t.Errorf("handler invocations = %d, want %d", got, wantDelivered)
	}
	if classDelivered != wantDelivered {
		t.Errorf("sum of ClassStats.Delivered = %d, want %d", classDelivered, wantDelivered)
	}
	m := scrapeOf(reg)
	if got := m.counter("lrgp_broker_delivered_total"); got != wantDelivered {
		t.Errorf("telemetry delivered = %d, want %d", got, wantDelivered)
	}
	if got := m.counter("lrgp_broker_published_total"); got != totalPublished {
		t.Errorf("telemetry published = %d, want %d", got, totalPublished)
	}
	// WorkUnits: per message 1 routing + per class (1 transform + 4
	// filters + 4 deliveries); flow 0 crosses two classes.
	wantWork := totalPublished + 9*(totalPublished-f0) + 18*f0
	if got := b.WorkUnits(); got != wantWork {
		t.Errorf("WorkUnits = %d, want %d", got, wantWork)
	}
	if got := m.counter("lrgp_broker_work_units_total"); got != wantWork {
		t.Errorf("telemetry work units = %d, want %d", got, wantWork)
	}
}

// scrapeLoop starts a scraper on wg that renders reg in the Prometheus
// format and takes a Snapshot, over and over until stop closes, and fails
// the test if a counter ever reads less than the scrape before it: every
// counter func sums monotonic state, so a scrape racing publishers and
// control operations may straddle them but never goes back. It returns
// the number of completed scrapes.
func scrapeLoop(t *testing.T, reg *telemetry.Registry, stop <-chan struct{}, wg *sync.WaitGroup) *atomic.Uint64 {
	var scrapes atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := map[string]uint64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			for key, v := range reg.Snapshot() {
				if c, ok := v.(uint64); ok {
					if c < prev[key] {
						t.Errorf("counter %s went back from %d to %d", key, prev[key], c)
						return
					}
					prev[key] = c
				}
			}
			scrapes.Add(1)
		}
	}()
	return &scrapes
}

// TestScrapeDuringAutopilotCycles races a scraper against publishers, an
// attach/detach churner and an autopilot cycling back to back on one
// broker: a scrape reads the flow and class atomics beside publishers,
// takes b.mu for EnactStats and waits out an in-flight cycle for the
// autopilot's Stats. Under -race this is the proof that reading the
// stats when scraped is safe; once everything stops, the counters equal
// the stats they read.
func TestScrapeDuringAutopilotCycles(t *testing.T) {
	p := stressProblem(3)
	reg := telemetry.NewRegistry()
	b, err := New(p, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAutopilot(b, AutopilotConfig{ItersPerCycle: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for j := range p.Classes {
		for range 4 {
			if _, err := b.AttachConsumer(model.ClassID(j), nil, func(Message) {}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	scrapes := scrapeLoop(t, reg, stop, &wg)
	wg.Add(1 + len(p.Flows))
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id, err := b.AttachConsumer(model.ClassID(rng.Intn(len(p.Classes))), nil, nil)
			if err == nil {
				err = b.DetachConsumer(id)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := range p.Flows {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Throttling is part of the mix, not a failure.
				_ = b.Publish(model.FlowID(i), nil, "x")
			}
		}()
	}
	// Cycle at least 30 times, and on until 30 scrapes have completed
	// beside the cycles; a scraper that failed stops counting, hence the
	// cap.
	cycles := 0
	for ; (cycles < 30 || scrapes.Load() < 30) && cycles < 1e5; cycles++ {
		if _, _, err := a.Cycle(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if scrapes.Load() < 30 {
		t.Fatalf("%d scrapes completed during %d cycles, want 30", scrapes.Load(), cycles)
	}

	m, es, as := scrapeOf(reg), b.EnactStats(), a.Stats()
	var published uint64
	for i := range p.Flows {
		fs, err := b.FlowStats(model.FlowID(i))
		if err != nil {
			t.Fatal(err)
		}
		published += fs.Published
	}
	for key, want := range map[string]uint64{
		"lrgp_broker_published_total":                published,
		"lrgp_broker_allocations_total":              es.Applies,
		`lrgp_enact_route_builds_total{mode="noop"}`: es.RouteNoops,
		`lrgp_enact_cycles_total{result="enacted"}`:  uint64(as.Enacted),
		`lrgp_enact_cycles_total{result="skipped"}`:  uint64(as.Skipped),
		"lrgp_broker_work_units_total":               b.WorkUnits(),
	} {
		if got := m.counter(key); got != want {
			t.Errorf("%s = %d after the run, the stats say %d", key, got, want)
		}
	}
	if count, _ := m.histogram("lrgp_enact_cycle_seconds"); count != uint64(as.Cycles) {
		t.Errorf("cycle histogram counted %d cycles, the autopilot ran %d", count, as.Cycles)
	}
}

// TestPublishStressConcurrentChurn races publishers against every control
// operation that moves the boundary of the shared consumer arrays: attach
// appending past the published prefix, detach inside it (the class moves
// to fresh arrays) and beyond it (the tails shift in place), and enacts
// that grow and shrink the admitted prefix. Odd classes filter every
// consumer with a pass-all label, so their filters array is shared and
// moved beside the handlers. Under -race it is the memory-
// safety proof of the sharing rule in enact.go. The assertion is exactly-
// once delivery against the snapshot each publish loaded: the consumers a
// message reached, in delivery order, must be one of the admitted
// prefixes the control plane actually published for that class — never a
// list with a duplicate, a gap, or halves of two different states.
// Publishers keep going, past perG messages each, until the churner has
// seen every class through minPrefixes admitted prefixes, so the race
// happens however the scheduler shares the CPU.
func TestPublishStressConcurrentChurn(t *testing.T) {
	const (
		flows       = 2
		publishers  = 4
		perG        = 1500
		minPrefixes = 10
	)
	p := stressProblem(flows)
	b, err := New(p, WithTransform(model.ClassID(flows), Annotate{Attr: "tag", Value: 1}))
	if err != nil {
		t.Fatal(err)
	}

	// Receipts: per class, the labels a message reached in delivery order.
	// One Publish runs its handlers sequentially, so each list is written
	// by one goroutine at a time; the mutex orders different messages.
	type classLog struct {
		mu   sync.Mutex
		seqs map[uint64][]byte
	}
	logs := make([]classLog, len(p.Classes))
	for j := range logs {
		logs[j].seqs = make(map[uint64][]byte)
	}

	// The churner's reference model of one class: labels in attach order
	// and the admitted count. valid collects every admitted prefix that
	// was ever in force.
	type refClass struct {
		labels   []byte
		ids      []ConsumerID
		admitted int
		next     byte
		valid    map[string]bool
	}
	ref := make([]refClass, len(p.Classes))
	alloc := model.NewAllocation(p)
	for i := range p.Flows {
		alloc.Rates[i] = 1e9
	}
	attach := func(j int) {
		rc := &ref[j]
		name := rc.next
		rc.next++
		lg := &logs[j]
		var f Filter
		if j%2 == 1 {
			f = label(name)
		}
		id, err := b.AttachConsumer(model.ClassID(j), f, func(m Message) {
			lg.mu.Lock()
			lg.seqs[m.Seq] = append(lg.seqs[m.Seq], name)
			lg.mu.Unlock()
		})
		if err != nil {
			t.Error(err)
		}
		rc.labels = append(rc.labels, name)
		rc.ids = append(rc.ids, id)
	}
	detach := func(j, k int) {
		rc := &ref[j]
		if err := b.DetachConsumer(rc.ids[k]); err != nil {
			t.Error(err)
		}
		rc.labels = append(rc.labels[:k:k], rc.labels[k+1:]...)
		rc.ids = append(rc.ids[:k:k], rc.ids[k+1:]...)
		if k < rc.admitted {
			// Keep the shared allocation in step, or the next enact of any
			// class would quietly re-grow this one.
			rc.admitted--
			alloc.Consumers[j] = rc.admitted
		}
	}
	enact := func(j, n int) {
		alloc.Consumers[j] = n
		if err := b.ApplyAllocation(alloc); err != nil {
			t.Error(err)
		}
		ref[j].admitted = n
	}
	noteValid := func(j int) {
		rc := &ref[j]
		rc.valid[string(rc.labels[:rc.admitted])] = true
	}
	for j := range ref {
		ref[j].valid = make(map[string]bool)
		for k := 0; k < 6; k++ {
			attach(j)
		}
		enact(j, 4)
		noteValid(j)
	}

	// churned is set once every class has had minPrefixes admitted
	// prefixes; published counts the messages each flow accepted.
	var churned atomic.Bool
	var published [flows]atomic.Int64
	var pubWG, churnWG sync.WaitGroup
	stop := make(chan struct{})
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(21))
		for {
			select {
			case <-stop:
				return
			default:
			}
			j := rng.Intn(len(ref))
			rc := &ref[j]
			switch op := rng.Intn(5); {
			case op == 0 && len(rc.labels) < 12:
				attach(j) // appends past every published prefix
			case op == 1 && rc.admitted > 1:
				detach(j, rng.Intn(rc.admitted)) // inside the admitted prefix
			case op == 2 && len(rc.labels) > rc.admitted:
				detach(j, rc.admitted+rng.Intn(len(rc.labels)-rc.admitted)) // beyond it
			case op == 3 && len(rc.labels) > rc.admitted:
				enact(j, rc.admitted+1+rng.Intn(len(rc.labels)-rc.admitted)) // grow
			case op == 4 && rc.admitted > 1:
				enact(j, 1+rng.Intn(rc.admitted-1)) // shrink, never to zero
			}
			noteValid(j)
			if !churned.Load() && !slices.ContainsFunc(ref, func(rc refClass) bool { return len(rc.valid) < minPrefixes }) {
				churned.Store(true)
			}
		}
	}()

	attrs := map[string]float64{"price": 80}
	for g := 0; g < publishers; g++ {
		flow := model.FlowID(g % flows)
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for n := 0; n < perG || !churned.Load(); n++ {
				if err := b.Publish(flow, attrs, "x"); err != nil {
					t.Error(err)
					return
				}
				published[flow].Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { pubWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged")
	}
	close(stop)
	churnWG.Wait()

	// Every class keeps at least one admitted consumer throughout, so
	// every message of its flow must have reached it, along one valid
	// prefix.
	for j := range ref {
		if want := published[p.Classes[j].Flow].Load(); int64(len(logs[j].seqs)) != want {
			t.Errorf("class %d: %d of %d messages delivered", j, len(logs[j].seqs), want)
		}
		bad := 0
		for seq, got := range logs[j].seqs {
			if !ref[j].valid[string(got)] && bad < 5 {
				bad++
				t.Errorf("class %d seq %d: delivered to %v, which is no admitted prefix this class ever published", j, seq, got)
			}
		}
		if len(ref[j].valid) < minPrefixes {
			t.Errorf("class %d: only %d distinct admitted prefixes; the churn is not racing the publishers", j, len(ref[j].valid))
		}
	}
}

// TestClassStatsCumulativeAcrossDetach pins the counter semantics of the
// sharded data plane: Delivered/Filtered are cumulative class totals (in
// line with the monotonic telemetry counters) and are not reduced when a
// counted consumer detaches. The pre-snapshot broker dropped the
// detached consumer's contribution; that was an artifact of per-consumer
// accounting, not a documented behavior.
func TestClassStatsCumulativeAcrossDetach(t *testing.T) {
	clock := newFakeClock()
	b, err := New(brokerProblem(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := b.AttachConsumer(0, nil, nil)
	if err := b.ApplyAllocation(model.Allocation{Rates: []float64{1000}, Consumers: []int{1, 0}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(time.Second)
		if err := b.Publish(0, nil, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DetachConsumer(id); err != nil {
		t.Fatal(err)
	}
	cs, _ := b.ClassStats(0)
	if cs.Delivered != 5 {
		t.Errorf("Delivered after detach = %d, want cumulative 5", cs.Delivered)
	}
	if cs.Attached != 0 || cs.Admitted != 0 {
		t.Errorf("population after detach = %d/%d, want 0/0", cs.Attached, cs.Admitted)
	}
}

// TestPublishIdentityZeroAllocs asserts the Identity-transform fast path
// allocates nothing per message: no attrs clone, no delivery scratch —
// the acceptance bar for the copy-on-write data plane. (The caller's
// attrs map is excluded: it is allocated once, outside the measured
// loop.)
func TestPublishIdentityZeroAllocs(t *testing.T) {
	br := benchBrokerFlows(t, 1, 8)
	attrs := map[string]float64{"price": 80}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := br.Publish(0, attrs, "x"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Identity Publish allocs/op = %g, want 0", allocs)
	}
}
