package broker

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/utility"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: t0} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// brokerProblem: one flow, two classes (gold at node 0, public at node 1).
func brokerProblem() *model.Problem {
	return &model.Problem{
		Name: "broker-test",
		Flows: []model.Flow{
			{ID: 0, Name: "trades", Source: 0, RateMin: 10, RateMax: 1000},
		},
		Nodes: []model.Node{
			{ID: 0, Capacity: 9e5, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
			{ID: 1, Capacity: 9e5, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			{ID: 0, Name: "gold", Flow: 0, Node: 0, MaxConsumers: 10, CostPerConsumer: 19, Utility: utility.NewLog(100)},
			{ID: 1, Name: "public", Flow: 0, Node: 1, MaxConsumers: 10, CostPerConsumer: 19, Utility: utility.NewLog(5)},
		},
	}
}

func TestNewValidates(t *testing.T) {
	p := brokerProblem()
	p.Classes[0].Utility = nil
	if _, err := New(p); err == nil {
		t.Error("New accepted invalid problem")
	}
}

func TestPublishDeliversToAdmittedOnly(t *testing.T) {
	clock := newFakeClock()
	b, err := New(brokerProblem(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}

	var goldGot, publicGot int
	gold, _ := b.AttachConsumer(0, nil, func(Message) { goldGot++ })
	public, _ := b.AttachConsumer(1, nil, func(Message) { publicGot++ })

	// Nothing admitted yet.
	if err := b.Publish(0, map[string]float64{"price": 80}, "t1"); err != nil {
		t.Fatal(err)
	}
	if goldGot != 0 || publicGot != 0 {
		t.Fatalf("delivered before admission: gold=%d public=%d", goldGot, publicGot)
	}

	// Admit gold only.
	if err := b.ApplyAllocation(model.Allocation{Rates: []float64{100}, Consumers: []int{1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(0, map[string]float64{"price": 81}, "t2"); err != nil {
		t.Fatal(err)
	}
	if goldGot != 1 || publicGot != 0 {
		t.Fatalf("after admission: gold=%d public=%d, want 1/0", goldGot, publicGot)
	}

	if adm, _ := b.Admitted(gold); !adm {
		t.Error("gold not reported admitted")
	}
	if adm, _ := b.Admitted(public); adm {
		t.Error("public reported admitted")
	}
}

func TestPublishThrottles(t *testing.T) {
	clock := newFakeClock()
	b, err := New(brokerProblem(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	// Initial rate is RateMin=10 with burst 10.
	throttled := 0
	for i := 0; i < 15; i++ {
		if err := b.Publish(0, nil, ""); errors.Is(err, ErrThrottled) {
			throttled++
		}
	}
	if throttled != 5 {
		t.Errorf("throttled %d of 15, want 5", throttled)
	}
	fs, _ := b.FlowStats(0)
	if fs.Published != 10 || fs.Throttled != 5 || fs.Rate != 10 {
		t.Errorf("stats = %+v", fs)
	}

	// Enact a higher rate: clock advance refills at the new rate.
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{100}, Consumers: []int{0, 0}})
	clock.Advance(time.Second)
	ok := 0
	for i := 0; i < 150; i++ {
		if b.Publish(0, nil, "") == nil {
			ok++
		}
	}
	if ok != 100 {
		t.Errorf("admitted %d after re-rating, want 100", ok)
	}
}

func TestFilterAndTransform(t *testing.T) {
	clock := newFakeClock()
	p := brokerProblem()
	b, err := New(p,
		WithClock(clock.Now),
		WithTransform(1, DropAttrs{"insider"}),
	)
	if err != nil {
		t.Fatal(err)
	}

	var goldMsgs, publicMsgs []Message
	_, _ = b.AttachConsumer(0, nil, func(m Message) { goldMsgs = append(goldMsgs, m) })
	_, _ = b.AttachConsumer(1, AttrFilter{"price", CmpGT, 80}, func(m Message) { publicMsgs = append(publicMsgs, m) })
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{1000}, Consumers: []int{1, 1}})

	pub := func(price float64) {
		if err := b.Publish(0, map[string]float64{"price": price, "insider": 1}, "x"); err != nil {
			t.Fatal(err)
		}
	}
	pub(79) // public filtered out
	pub(85) // both receive

	if len(goldMsgs) != 2 {
		t.Fatalf("gold got %d messages, want 2", len(goldMsgs))
	}
	if len(publicMsgs) != 1 {
		t.Fatalf("public got %d messages, want 1", len(publicMsgs))
	}
	// Gold retains the insider field; public's copy had it dropped.
	if _, ok := goldMsgs[1].Attrs["insider"]; !ok {
		t.Error("gold lost the insider attribute")
	}
	if _, ok := publicMsgs[0].Attrs["insider"]; ok {
		t.Error("public kept the insider attribute")
	}

	cs, _ := b.ClassStats(1)
	if cs.Delivered != 1 || cs.Filtered != 1 {
		t.Errorf("public stats = %+v", cs)
	}
}

func TestApplyAllocationShrinksLIFO(t *testing.T) {
	clock := newFakeClock()
	b, err := New(brokerProblem(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := b.AttachConsumer(0, nil, nil)
	second, _ := b.AttachConsumer(0, nil, nil)
	third, _ := b.AttachConsumer(0, nil, nil)

	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{10}, Consumers: []int{3, 0}})
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{10}, Consumers: []int{1, 0}})

	// Earliest attached stays admitted.
	if adm, _ := b.Admitted(first); !adm {
		t.Error("first unadmitted")
	}
	for _, id := range []ConsumerID{second, third} {
		if adm, _ := b.Admitted(id); adm {
			t.Errorf("consumer %d still admitted", id)
		}
	}
}

func TestApplyAllocationCapsAtAttached(t *testing.T) {
	clock := newFakeClock()
	b, _ := New(brokerProblem(), WithClock(clock.Now))
	_, _ = b.AttachConsumer(0, nil, nil)
	// Optimizer wants 5 admitted but only 1 attached.
	if err := b.ApplyAllocation(model.Allocation{Rates: []float64{10}, Consumers: []int{5, 0}}); err != nil {
		t.Fatal(err)
	}
	cs, _ := b.ClassStats(0)
	if cs.Admitted != 1 {
		t.Errorf("admitted = %d, want capped at 1", cs.Admitted)
	}
}

func TestApplyAllocationShapeError(t *testing.T) {
	b, _ := New(brokerProblem())
	if err := b.ApplyAllocation(model.Allocation{Rates: []float64{1}}); err == nil {
		t.Error("accepted malformed allocation")
	}
}

func TestDetachConsumer(t *testing.T) {
	b, _ := New(brokerProblem())
	id, _ := b.AttachConsumer(0, nil, nil)
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{10}, Consumers: []int{1, 0}})
	if err := b.DetachConsumer(id); err != nil {
		t.Fatal(err)
	}
	cs, _ := b.ClassStats(0)
	if cs.Attached != 0 || cs.Admitted != 0 {
		t.Errorf("stats after detach = %+v", cs)
	}
	if err := b.DetachConsumer(id); !errors.Is(err, ErrUnknownConsumer) {
		t.Errorf("double detach error = %v", err)
	}
	if _, err := b.Admitted(id); !errors.Is(err, ErrUnknownConsumer) {
		t.Errorf("Admitted after detach error = %v", err)
	}
}

func TestUnknownIDs(t *testing.T) {
	b, _ := New(brokerProblem())
	if _, err := b.AttachConsumer(99, nil, nil); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("AttachConsumer: %v", err)
	}
	if err := b.Publish(99, nil, ""); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("Publish: %v", err)
	}
	if _, err := b.FlowStats(99); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("FlowStats: %v", err)
	}
	if _, err := b.ClassStats(99); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("ClassStats: %v", err)
	}
}

func TestClassRateCapThinsDelivery(t *testing.T) {
	clock := newFakeClock()
	b, err := New(brokerProblem(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	var gold, public int
	_, _ = b.AttachConsumer(0, nil, func(Message) { gold++ })
	_, _ = b.AttachConsumer(1, nil, func(Message) { public++ })
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{1000}, Consumers: []int{1, 1}})

	// Public consumers get a thinned stream: 1 msg/s against the flow's
	// full rate.
	if err := b.SetClassRateCap(1, 1); err != nil {
		t.Fatal(err)
	}
	// 10 messages over 10 seconds at ~1 msg/s of clock advance.
	for i := 0; i < 10; i++ {
		clock.Advance(100 * time.Millisecond)
		if err := b.Publish(0, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	if gold != 10 {
		t.Errorf("gold received %d, want all 10", gold)
	}
	// The thinner starts with burst 1 and refills 1/s: over 1s total it
	// admits about 2 messages.
	if public < 1 || public > 3 {
		t.Errorf("public received %d, want a thinned stream (~2)", public)
	}
	cs, _ := b.ClassStats(1)
	if cs.Thinned != uint64(10-public) {
		t.Errorf("thinned = %d, want %d", cs.Thinned, 10-public)
	}

	// Removing the cap restores full delivery.
	if err := b.SetClassRateCap(1, 0); err != nil {
		t.Fatal(err)
	}
	before := public
	clock.Advance(time.Second)
	if err := b.Publish(0, nil, ""); err != nil {
		t.Fatal(err)
	}
	if public != before+1 {
		t.Errorf("delivery not restored after cap removal")
	}
}

func TestSetClassRateCapRerates(t *testing.T) {
	clock := newFakeClock()
	b, _ := New(brokerProblem(), WithClock(clock.Now))
	if err := b.SetClassRateCap(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.SetClassRateCap(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := b.SetClassRateCap(99, 1); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("error = %v, want ErrUnknownClass", err)
	}
}

func TestWorkUnitsDeterministic(t *testing.T) {
	run := func() uint64 {
		clock := newFakeClock()
		b, _ := New(brokerProblem(), WithClock(clock.Now))
		for i := 0; i < 5; i++ {
			_, _ = b.AttachConsumer(0, nil, nil)
		}
		_ = b.ApplyAllocation(model.Allocation{Rates: []float64{1000}, Consumers: []int{5, 0}})
		for i := 0; i < 20; i++ {
			clock.Advance(time.Second)
			_ = b.Publish(0, map[string]float64{"price": float64(i)}, "")
		}
		return b.WorkUnits()
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Errorf("work units %d vs %d, want equal and nonzero", a, b)
	}
	// Structure: 20 messages x (1 route + 1 transform + 5 filters + 5
	// deliveries) = 240.
	if a != 240 {
		t.Errorf("work units = %d, want 240", a)
	}
}
