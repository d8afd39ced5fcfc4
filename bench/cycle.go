package main

import (
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
)

// cycler is the benchmark's own copy of broker.Autopilot's cycle, made of
// the same public calls in the same order with the autopilot's default
// thresholds: AllClassStats/FlowStats, then SetClassDemand or Reset, then
// Solve, then ApplyAllocation. Autopilot.Cycle is one opaque call, so the
// traced demand_churn run drives this copy to put a span around each step;
// TestCyclerMatchesAutopilot holds the copy to the original, and
// trace.overhead_ratio reports how far its speed sits from the original's.
type cycler struct {
	b   *broker.Broker
	eng *core.Engine
	now func() time.Time

	prob        *model.Problem
	rateMax0    []float64
	enacted     model.Allocation
	stats       []broker.ClassStats
	prevOffered []uint64
	offered     []float64
	lastSync    time.Time
}

// The autopilot's defaults (broker.AutopilotConfig's zero value).
const (
	apEnactThreshold = 0.01
	apItersPerCycle  = 100
	apRateHeadroom   = 1.25
)

// newCycler builds a cycler around b; now must be the clock b runs on.
func newCycler(b *broker.Broker, now func() time.Time) (*cycler, error) {
	prob := b.Problem().Clone()
	eng, err := core.NewEngine(prob, engineConfig)
	if err != nil {
		return nil, err
	}
	c := &cycler{
		b:           b,
		eng:         eng,
		now:         now,
		prob:        prob,
		rateMax0:    make([]float64, len(prob.Flows)),
		enacted:     model.NewAllocation(prob),
		prevOffered: make([]uint64, len(prob.Flows)),
		offered:     make([]float64, len(prob.Flows)),
		lastSync:    now(),
	}
	for i := range prob.Flows {
		c.rateMax0[i] = prob.Flows[i].RateMax
	}
	return c, nil
}

func (c *cycler) close() { c.eng.Close() }

// cycleObs is what one traced cycle measured besides its spans.
type cycleObs struct {
	iters                    int
	solveAllocs, enactAllocs uint64
}

// cycle runs one cycle, recording a span per step under root span id when
// tr is not nil. It reports the solved allocation and whether it enacted.
func (c *cycler) cycle(tr *tracer, id int64) (model.Allocation, bool, cycleObs, error) {
	var obs cycleObs
	root := tr.begin("cycle", id, -1)
	defer tr.end(root)

	sp := tr.begin("broker.estimate", id, root)
	c.stats = c.b.AllClassStats(c.stats)
	now := c.now()
	dt := now.Sub(c.lastSync).Seconds()
	c.lastSync = now
	needReset := false
	if dt > 0 {
		for i := range c.prob.Flows {
			fs, err := c.b.FlowStats(model.FlowID(i))
			if err != nil {
				return model.Allocation{}, false, obs, err
			}
			total := fs.Published + fs.Throttled
			inst := float64(total-c.prevOffered[i]) / dt
			c.prevOffered[i] = total
			if c.offered[i] == 0 {
				c.offered[i] = inst
			} else {
				c.offered[i] = 0.5*c.offered[i] + 0.5*inst
			}
			f := &c.prob.Flows[i]
			want := c.rateMax0[i]
			if c.offered[i] > 0 {
				if est := c.offered[i] * apRateHeadroom; est < want {
					want = est
				}
				if want < f.RateMin {
					want = f.RateMin
				}
			}
			if relChange(f.RateMax, want) > 0.01 {
				f.RateMax = want
				needReset = true
			}
		}
	}
	tr.end(sp)

	allocs0 := heapAllocs(tr)
	sp = tr.begin("core.perturb", id, root)
	if needReset {
		for j, st := range c.stats {
			c.prob.Classes[j].MaxConsumers = st.Attached
		}
		if err := c.eng.Reset(c.prob); err != nil {
			return model.Allocation{}, false, obs, err
		}
	} else {
		for j, st := range c.stats {
			if c.prob.Classes[j].MaxConsumers == st.Attached {
				continue
			}
			if err := c.eng.SetClassDemand(model.ClassID(j), st.Attached); err != nil {
				return model.Allocation{}, false, obs, err
			}
		}
	}
	tr.end(sp)

	sp = tr.begin("core.solve", id, root)
	res := c.eng.Solve(apItersPerCycle)
	tr.end(sp)
	obs.iters = res.Iterations
	allocs1 := heapAllocs(tr)
	obs.solveAllocs = allocs1 - allocs0

	enact := maxRelChange(c.enacted, res.Allocation) >= apEnactThreshold
	if enact {
		sp = tr.begin("broker.enact", id, root)
		err := c.b.ApplyAllocation(res.Allocation)
		tr.end(sp)
		if err != nil {
			return res.Allocation, false, obs, err
		}
		obs.enactAllocs = heapAllocs(tr) - allocs1
		c.enacted = res.Allocation.Clone()
	}
	return res.Allocation, enact, obs, nil
}

// heapAllocs reads the process's cumulative heap-object count without
// stopping the world; 0 when untraced. The runtime folds a goroutine's
// allocations into the total a span of memory at a time, so one
// difference is coarse, and the sum over a run's cycles is what is used.
func heapAllocs(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// maxRelChange and relChange are the autopilot's allocation-movement
// measure (internal/broker/controller.go).
func maxRelChange(prev, next model.Allocation) float64 {
	var worst float64
	for i, r := range next.Rates {
		if d := relChange(prev.Rates[i], r); d > worst {
			worst = d
		}
	}
	for j, n := range next.Consumers {
		if d := relChange(float64(prev.Consumers[j]), float64(n)); d > worst {
			worst = d
		}
	}
	return worst
}

func relChange(prev, next float64) float64 {
	if prev == next {
		return 0
	}
	return math.Abs(next-prev) / math.Max(math.Abs(prev), math.Abs(next))
}
