package broker

import (
	"errors"
	"testing"
	"time"

	"repro/internal/model"
)

func TestProducerPublishAndStats(t *testing.T) {
	clock := newFakeClock()
	b, err := New(brokerProblem(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	_, _ = b.AttachConsumer(0, nil, func(Message) { got++ })
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{10}, Consumers: []int{1, 0}})

	pr, err := b.RegisterProducer(0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Flow() != 0 {
		t.Errorf("flow = %d", pr.Flow())
	}

	// Burst 10 admitted, then throttled.
	for i := 0; i < 15; i++ {
		_ = pr.Publish(map[string]float64{"v": float64(i)}, "")
	}
	st := pr.Stats()
	if st.Published != 10 || st.Throttled != 5 {
		t.Errorf("stats = %+v, want 10/5", st)
	}
	if got != 10 {
		t.Errorf("consumer received %d", got)
	}
}

func TestTwoProducersShareTheFlowLimit(t *testing.T) {
	clock := newFakeClock()
	b, _ := New(brokerProblem(), WithClock(clock.Now))
	a, _ := b.RegisterProducer(0)
	c, _ := b.RegisterProducer(0)

	// Rate 10, burst 10 shared: 6 + 6 interleaved -> 10 total admitted.
	admitted := 0
	for i := 0; i < 6; i++ {
		if a.Publish(nil, "") == nil {
			admitted++
		}
		if c.Publish(nil, "") == nil {
			admitted++
		}
	}
	if admitted != 10 {
		t.Errorf("admitted %d across producers, want 10 (shared bucket)", admitted)
	}
	sa, sc := a.Stats(), c.Stats()
	if sa.Published+sc.Published != 10 || sa.Throttled+sc.Throttled != 2 {
		t.Errorf("split = %+v / %+v", sa, sc)
	}
}

func TestRegisterProducerUnknownFlow(t *testing.T) {
	b, _ := New(brokerProblem())
	if _, err := b.RegisterProducer(9); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("error = %v", err)
	}
}

func TestProducerConcurrentPublish(t *testing.T) {
	clock := newFakeClock()
	b, _ := New(brokerProblem(), WithClock(clock.Now))
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{1000}, Consumers: []int{0, 0}})
	pr, _ := b.RegisterProducer(0)

	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				clock.Advance(time.Millisecond)
				_ = pr.Publish(nil, "")
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	st := pr.Stats()
	if st.Published+st.Throttled != 400 {
		t.Errorf("accounted %d of 400", st.Published+st.Throttled)
	}
}
