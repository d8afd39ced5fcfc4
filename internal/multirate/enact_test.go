package multirate

import (
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
)

func TestEnactThinsSlowClass(t *testing.T) {
	p := heteroProblem()
	e, err := NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Solve(600)

	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu = &clock
	b, err := broker.New(p, broker.WithClock(func() time.Time { return *mu }))
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow int
	if _, err := b.AttachConsumer(0, nil, func(broker.Message) { fast++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachConsumer(1, nil, func(broker.Message) { slow++ }); err != nil {
		t.Fatal(err)
	}

	// Force at least one consumer of each class to be admitted for the
	// delivery check (the optimizer admits many anyway).
	alloc := res.Allocation
	if alloc.Consumers[0] == 0 {
		alloc.Consumers[0] = 1
	}
	if alloc.Consumers[1] == 0 {
		alloc.Consumers[1] = 1
	}
	if err := Enact(b, alloc); err != nil {
		t.Fatal(err)
	}

	// Publish at the source rate for 10 simulated seconds.
	srcRate := alloc.Rates[0]
	interval := time.Duration(float64(time.Second) / srcRate)
	published := 0
	for i := 0; i < int(10*srcRate); i++ {
		clock = clock.Add(interval)
		if err := b.Publish(0, nil, ""); err == nil {
			published++
		}
	}
	if published == 0 {
		t.Fatal("nothing published")
	}
	// The fast class receives (nearly) everything; the slow class's
	// stream is thinned to about delivery/source of it.
	if fast < published*9/10 {
		t.Errorf("fast received %d of %d", fast, published)
	}
	wantSlow := float64(published) * alloc.Delivery[1] / srcRate
	if float64(slow) > wantSlow*1.5+2 || float64(slow) < wantSlow*0.5-2 {
		t.Errorf("slow received %d, want about %.0f (thinned %g of %g)",
			slow, wantSlow, alloc.Delivery[1], srcRate)
	}
	cs, err := b.ClassStats(1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Thinned == 0 {
		t.Error("no thinning recorded for the slow class")
	}
}

func TestEnactShapeMismatch(t *testing.T) {
	p := heteroProblem()
	b, err := broker.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Enact(b, model.Allocation{}); err == nil {
		t.Error("accepted malformed allocation")
	}
}
