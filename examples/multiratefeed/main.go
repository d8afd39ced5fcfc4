// Multirate feed: the paper's deferred future work (Section 5) in action.
//
// One feed serves 20 premium analytics engines that want every message and
// 10,000 dashboards that refresh a few times a second at most. Single-rate
// LRGP must pick one rate for everyone; the multirate extension gives the
// premium class the full stream and thins the dashboard stream, and the
// broker enacts the split with per-class rate caps.
//
//	go run ./examples/multiratefeed
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/multirate"
	"repro/internal/workload"
)

func main() {
	p := workload.Heterogeneous()

	// Single-rate LRGP for comparison.
	single, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		log.Fatal(err)
	}
	sres := single.Solve(600)

	// Multirate LRGP.
	multi, err := multirate.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		log.Fatal(err)
	}
	mres := multi.Solve(600)
	a := mres.Allocation

	fmt.Printf("single-rate: utility %7.0f at one rate %.0f msg/s for everyone\n",
		sres.Utility, sres.Allocation.Rates[0])
	fmt.Printf("multirate:   utility %7.0f (%+.1f%%)\n",
		mres.Utility, 100*(mres.Utility-sres.Utility)/sres.Utility)
	fmt.Printf("  source rate      %6.0f msg/s\n", a.Rates[0])
	fmt.Printf("  premium delivery %6.0f msg/s (%d/%d admitted)\n",
		a.Delivery[0], a.Consumers[0], p.Classes[0].MaxConsumers)
	fmt.Printf("  dashboards       %6.1f msg/s (%d/%d admitted)\n",
		a.Delivery[1], a.Consumers[1], p.Classes[1].MaxConsumers)

	// Enact in a broker and stream one simulated minute of traffic.
	clock := time.Date(2026, 7, 4, 14, 0, 0, 0, time.UTC)
	b, err := broker.New(p, broker.WithClock(func() time.Time { return clock }))
	if err != nil {
		log.Fatal(err)
	}
	var premiumGot, dashGot int
	if _, err := b.AttachConsumer(0, nil, func(broker.Message) { premiumGot++ }); err != nil {
		log.Fatal(err)
	}
	if _, err := b.AttachConsumer(1, nil, func(broker.Message) { dashGot++ }); err != nil {
		log.Fatal(err)
	}
	enact := a
	if enact.Consumers[0] == 0 {
		enact.Consumers[0] = 1
	}
	if enact.Consumers[1] == 0 {
		enact.Consumers[1] = 1
	}
	if err := multirate.Enact(b, enact); err != nil {
		log.Fatal(err)
	}

	producer, err := b.RegisterProducer(0)
	if err != nil {
		log.Fatal(err)
	}
	interval := time.Duration(float64(time.Second) / a.Rates[0])
	published := 0
	for i := 0; i < int(60*a.Rates[0]); i++ {
		clock = clock.Add(interval)
		if err := producer.Publish(map[string]float64{"v": float64(i)}, "tick"); err == nil {
			published++
		}
	}
	stats, _ := b.ClassStats(1)
	fmt.Printf("\none simulated minute: published %d messages\n", published)
	fmt.Printf("  one premium consumer received %d (full stream)\n", premiumGot)
	fmt.Printf("  one dashboard received %d (thinned; %d dropped by its rate cap)\n",
		dashGot, stats.Thinned)
}
