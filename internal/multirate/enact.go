package multirate

import (
	"fmt"

	"repro/internal/broker"
	"repro/internal/model"
)

// Enact applies a multirate allocation to a broker: source token buckets
// get the source rates, classes get their admitted populations, and each
// class whose delivery rate is below its flow's source rate gets a
// per-class delivery cap (the broker thins its stream). A nil Delivery is
// d_j = r_i and clears every cap.
func Enact(b *broker.Broker, a model.Allocation) error {
	p := b.Problem()
	if a.Delivery != nil && len(a.Delivery) != len(p.Classes) {
		return fmt.Errorf("multirate: %d delivery rates for %d classes", len(a.Delivery), len(p.Classes))
	}
	if err := b.ApplyAllocation(a); err != nil {
		return err
	}
	for j := range p.Classes {
		cap := 0.0 // no cap: deliver at the source rate
		if a.Delivery != nil && a.Delivery[j] < a.Rates[p.Classes[j].Flow] {
			cap = a.Delivery[j]
		}
		if err := b.SetClassRateCap(model.ClassID(j), cap); err != nil {
			return err
		}
	}
	return nil
}
