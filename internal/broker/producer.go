package broker

import (
	"fmt"
	"sync/atomic"

	"repro/internal/model"
)

// Producer is a registered publishing endpoint for one flow. All
// producers of a flow share the flow's source node and rate limit (the
// paper: "a producer publishes messages on one flow, and all the
// producers publishing to a particular flow connect to the same node");
// per-producer accounting is kept separately. Producer methods are safe
// for concurrent use and lock-free: concurrent Publish calls through the
// same or different producers contend only on the flow's token bucket.
type Producer struct {
	flow   model.FlowID
	broker *Broker

	published atomic.Uint64
	throttled atomic.Uint64
}

// ProducerStats reports one producer's accounting.
type ProducerStats struct {
	Published uint64
	Throttled uint64
}

// RegisterProducer attaches a producer to a flow.
func (b *Broker) RegisterProducer(flow model.FlowID) (*Producer, error) {
	if flow < 0 || int(flow) >= len(b.p.Flows) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	return &Producer{flow: flow, broker: b}, nil
}

// Publish injects one message through the producer, applying the flow's
// shared rate limit and recording per-producer stats. The attrs map must
// not be mutated after publishing (see Broker.Publish).
func (p *Producer) Publish(attrs map[string]float64, body string) error {
	err := p.broker.Publish(p.flow, attrs, body)
	switch {
	case err == nil:
		p.published.Add(1)
	case err == ErrThrottled:
		p.throttled.Add(1)
	}
	return err
}

// Stats returns the producer's counters.
func (p *Producer) Stats() ProducerStats {
	return ProducerStats{
		Published: p.published.Load(),
		Throttled: p.throttled.Load(),
	}
}
