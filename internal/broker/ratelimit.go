package broker

import (
	"sync"
	"time"
)

// TokenBucket enforces a message rate at a flow's source node. Tokens
// accrue continuously at Rate per second up to Burst; each admitted
// message consumes one token. The clock is injected for deterministic
// tests.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	// coupled marks a defaulted burst: it is one second's worth of the
	// current rate (minimum 1) and follows every SetRate.
	coupled bool
}

// NewTokenBucket returns a bucket producing rate tokens/second with the
// given burst capacity, initially full. burst <= 0 defaults to one
// second's worth of tokens (minimum 1) and couples the burst to the rate.
func NewTokenBucket(rate, burst float64, now time.Time) *TokenBucket {
	coupled := burst <= 0
	if coupled {
		burst = coupledBurst(rate)
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: now, coupled: coupled}
}

// coupledBurst is one second's worth of tokens at rate, at least 1.
func coupledBurst(rate float64) float64 { return max(rate, 1) }

// SetRate changes the refill rate (enacting a new optimizer allocation).
// Accumulated tokens are first settled at the old rate. An explicit burst
// stays as configured; a defaulted one follows the new rate.
func (tb *TokenBucket) SetRate(rate float64, now time.Time) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(now)
	if tb.coupled {
		tb.burst = coupledBurst(rate)
		tb.tokens = min(tb.tokens, tb.burst)
	}
	tb.rate = rate
}

// Allow consumes one token if available and reports whether the message
// may pass.
func (tb *TokenBucket) Allow(now time.Time) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(now)
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

func (tb *TokenBucket) refill(now time.Time) {
	if !now.After(tb.last) {
		return
	}
	dt := now.Sub(tb.last).Seconds()
	tb.last = now
	tb.tokens += dt * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}
