package dist

import (
	"testing"
	"time"
)

// TestChirpPolicy checks the stall re-announce policy on its own — no
// cluster, and no waiting: the intervals are read off the policy, the
// timers (hours long) never fire.
func TestChirpPolicy(t *testing.T) {
	for _, base := range []time.Duration{time.Hour, 3 * time.Hour, 1000 * time.Hour} {
		c := newChirp(base)
		if c.C == nil || c.wait != base {
			t.Fatalf("base %v: armed with %v, channel %v", base, c.wait, c.C)
		}
		// Each stall doubles the interval until it reaches 16x base, and
		// says so; from there it holds.
		for stall, want := range []time.Duration{2 * base, 4 * base, 8 * base, 16 * base, 16 * base, 16 * base} {
			if grew := c.stalled(); c.wait != want || grew != (stall < 4) {
				t.Errorf("base %v stall %d: wait %v (grew %v), want %v", base, stall+1, c.wait, grew, want)
			}
		}
		c.progress()
		if c.wait != base {
			t.Errorf("base %v: wait %v after progress, want the base again", base, c.wait)
		}
		if c.stalled(); c.wait != 2*base {
			t.Errorf("base %v: wait %v on the first stall after progress, want %v", base, c.wait, 2*base)
		}
		c.stop()
	}
	// A resend interval <= 0 disables the chirp: a nil channel never fires in a select,
	// and progress and stop are no-ops.
	for _, base := range []time.Duration{0, -time.Millisecond} {
		c := newChirp(base)
		if c.C != nil || c.timer != nil {
			t.Errorf("base %v: chirp armed", base)
		}
		c.progress()
		c.stop()
	}
}
