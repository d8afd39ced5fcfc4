package broker

import (
	"time"

	"repro/internal/model"
)

// Accessors only the tests read.

// Admitted reports whether a consumer is currently admitted.
func (b *Broker) Admitted(id ConsumerID) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cs, _, k, err := b.findLocked(id)
	if err != nil {
		return false, err
	}
	return k < cs.admitted, nil
}

// Rate returns the current refill rate.
func (tb *TokenBucket) Rate() float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.rate
}

// Tokens returns the currently available tokens (after settling).
func (tb *TokenBucket) Tokens(now time.Time) float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(now)
	return tb.tokens
}

// Flow returns the producer's flow.
func (p *Producer) Flow() model.FlowID { return p.flow }
