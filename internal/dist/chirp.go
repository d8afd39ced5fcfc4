package dist

import "time"

// chirp is the stall re-announce policy of the round loops: C fires once an
// agent has gone `wait` without progress, so it can re-send its freshest
// value and a dropped frame cannot deadlock the cluster. Progress pushes the
// deadline out again — chirps fire only after a genuine stall, because a
// periodic chirp from every agent of a large cluster is a message storm —
// and repeated stalls back off exponentially: when the whole cluster is slow
// (not lossy), fixed-period chirps from every agent feed back into the
// slowness.
type chirp struct {
	C     <-chan time.Time // nil (never fires) when resends are disabled
	wait  time.Duration    // the interval the timer was last armed with
	base  time.Duration
	timer *time.Timer
}

// newChirp arms a chirp that first fires after base; base <= 0 disables it.
func newChirp(base time.Duration) *chirp {
	c := &chirp{base: base, wait: base}
	if base > 0 {
		c.timer = time.NewTimer(base)
		c.C = c.timer.C
	}
	return c
}

// progress re-arms the timer at the base interval.
func (c *chirp) progress() {
	if c.timer != nil {
		c.wait = c.base
		c.timer.Reset(c.wait)
	}
}

// stalled re-arms the timer after it fired, doubling the interval up to 16x
// base, and reports whether it grew.
func (c *chirp) stalled() bool {
	grew := c.wait < 16*c.base
	if grew {
		c.wait *= 2
	}
	c.timer.Reset(c.wait)
	return grew
}

func (c *chirp) stop() {
	if c.timer != nil {
		c.timer.Stop()
	}
}
