package broker

import (
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)

func TestTokenBucketBurstThenThrottle(t *testing.T) {
	tb := NewTokenBucket(10, 0, t0) // burst defaults to rate = 10
	for i := 0; i < 10; i++ {
		if !tb.Allow(t0) {
			t.Fatalf("message %d throttled within burst", i)
		}
	}
	if tb.Allow(t0) {
		t.Error("message beyond burst admitted")
	}
}

func TestTokenBucketRefill(t *testing.T) {
	tb := NewTokenBucket(10, 0, t0)
	for i := 0; i < 10; i++ {
		tb.Allow(t0)
	}
	// 0.5s at 10/s = 5 tokens.
	later := t0.Add(500 * time.Millisecond)
	admitted := 0
	for i := 0; i < 10; i++ {
		if tb.Allow(later) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Errorf("admitted %d after refill, want 5", admitted)
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	tb := NewTokenBucket(10, 20, t0)
	if got := tb.Tokens(t0.Add(time.Hour)); got != 20 {
		t.Errorf("tokens = %g, want burst cap 20", got)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	tb := NewTokenBucket(10, 0, t0)
	for i := 0; i < 10; i++ {
		tb.Allow(t0)
	}
	tb.SetRate(100, t0)
	if tb.Rate() != 100 {
		t.Errorf("rate = %g", tb.Rate())
	}
	// 100 ms at 100/s = 10 tokens; burst followed the rate to 100.
	later := t0.Add(100 * time.Millisecond)
	admitted := 0
	for i := 0; i < 20; i++ {
		if tb.Allow(later) {
			admitted++
		}
	}
	if admitted != 10 {
		t.Errorf("admitted %d, want 10", admitted)
	}
}

func TestTokenBucketRateCoupledBurstFollows(t *testing.T) {
	tb := NewTokenBucket(10, 0, t0)
	tb.SetRate(50, t0)
	if got := tb.Tokens(t0.Add(time.Hour)); got != 50 {
		t.Errorf("burst after rate change = %g, want 50", got)
	}
}

func TestTokenBucketExplicitBurstKept(t *testing.T) {
	tb := NewTokenBucket(10, 30, t0)
	tb.SetRate(50, t0)
	if got := tb.Tokens(t0.Add(time.Hour)); got != 30 {
		t.Errorf("explicit burst after rate change = %g, want 30", got)
	}
}

func TestTokenBucketMinimumBurst(t *testing.T) {
	tb := NewTokenBucket(0.1, 0, t0) // rate below 1: burst floors at 1
	if !tb.Allow(t0) {
		t.Error("first message throttled despite burst floor")
	}
}

// TestTokenBucketSubUnitRateKeepsCoupling: a defaulted burst floors at 1
// below 1 msg/s, and must still follow the rate back up. Inferring the
// coupling from burst == rate lost it there and pinned the burst at 1.
func TestTokenBucketSubUnitRateKeepsCoupling(t *testing.T) {
	for _, c := range []struct {
		name  string
		rates []float64 // the first builds the bucket, the rest are SetRate
	}{
		{"born below 1", []float64{0.5, 100}},
		{"dipped below 1", []float64{100, 0.5, 100}},
		{"through zero", []float64{100, 0, 100}},
	} {
		tb := NewTokenBucket(c.rates[0], 0, t0)
		for _, r := range c.rates[1:] {
			tb.SetRate(r, t0)
		}
		if got := tb.Tokens(t0.Add(time.Second)); got != 100 {
			t.Errorf("%s: %g tokens after 1 s at 100/s, want a burst of 100", c.name, got)
		}
	}
}

// TestTokenBucketExplicitBurstEqualToRate: a burst passed explicitly is
// kept even when it equals the rate; only a defaulted burst follows.
func TestTokenBucketExplicitBurstEqualToRate(t *testing.T) {
	tb := NewTokenBucket(10, 10, t0)
	tb.SetRate(50, t0)
	if got := tb.Tokens(t0.Add(time.Hour)); got != 10 {
		t.Errorf("explicit burst 10 after rate change = %g, want 10", got)
	}
}

func TestTokenBucketTimeGoingBackwards(t *testing.T) {
	tb := NewTokenBucket(10, 0, t0)
	for i := 0; i < 10; i++ {
		tb.Allow(t0)
	}
	// A clock step backwards must not mint tokens.
	if tb.Allow(t0.Add(-time.Hour)) {
		t.Error("backwards clock minted tokens")
	}
}
