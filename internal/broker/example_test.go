package broker_test

import (
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/model"
	"repro/internal/utility"
)

// Example wires the full enactment path: attach consumers, enact an
// allocation, publish through a producer, observe filtering and
// admission.
func Example() {
	problem := &model.Problem{
		Flows: []model.Flow{{ID: 0, Name: "prices", Source: 0, RateMin: 10, RateMax: 1000}},
		Nodes: []model.Node{{ID: 0, Capacity: 1e6, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})}},
		Classes: []model.Class{
			{ID: 0, Name: "watchers", Flow: 0, Node: 0, MaxConsumers: 10,
				CostPerConsumer: 19, Utility: utility.NewLog(10)},
		},
	}
	clock := time.Date(2026, 7, 4, 9, 30, 0, 0, time.UTC)
	b, err := broker.New(problem, broker.WithClock(func() time.Time { return clock }))
	if err != nil {
		fmt.Println(err)
		return
	}

	received := 0
	_, _ = b.AttachConsumer(0, broker.AttrFilter{Attr: "price", Op: broker.CmpGT, Value: 80},
		func(broker.Message) { received++ })

	// Enact an optimizer decision: rate 100 msg/s, 1 consumer admitted.
	_ = b.ApplyAllocation(model.Allocation{Rates: []float64{100}, Consumers: []int{1}})

	producer, _ := b.RegisterProducer(0)
	for _, price := range []float64{79, 81, 85, 80} {
		_ = producer.Publish(map[string]float64{"price": price}, "tick")
	}
	stats, _ := b.ClassStats(0)
	fmt.Printf("published 4, delivered %d (filter: price > 80), filtered %d\n",
		received, stats.Filtered)
	// Output:
	// published 4, delivered 2 (filter: price > 80), filtered 2
}
