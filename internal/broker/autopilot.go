package broker

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Autopilot is the broker's one control loop, the closed self-regulation
// loop the paper sketches in Section 2.1 ("the optimization runs all the
// time, responding to changes in workload ... decisions may not be enacted
// until their values are sufficiently different from the previous enacted
// values"): each cycle it estimates live demand from the broker's counters,
// perturbs its private copy of the problem, warm re-solves (the engine
// keeps its prices across cycles), and enacts only when the solution moved
// past the enactment threshold.
//
// Two signals drive the perturbation:
//
//   - Per-class demand: each class's attached-consumer count, copied in
//     one read of the broker's dense counts, becomes its n^max. Demand-only
//     changes go through Engine.SetClassDemand, which dirties just the
//     affected node — no engine reset.
//   - Per-flow offered rate: the EWMA of (published+throttled) deltas
//     between cycles, scaled by rateHeadroom, caps the flow's RateMax
//     below its configured ceiling. There is no utility in granting a
//     flow more rate than its producers offer; shrinking the bound stops
//     the optimizer from parking capacity on idle flows. Bound changes
//     require Engine.Reset (warm-started: prices and populations carry
//     over, so a nearby problem re-converges in a few iterations).
//
// The Autopilot clones the broker's problem at construction and perturbs
// only the clone: the broker's shared problem definition is never mutated
// behind its users' backs, and Engine().Problem() is where the synced
// demand shows.
//
// Enactment goes through Broker.ApplyAllocation's delta path, so a cycle
// whose solution barely moved costs a route no-op, not a rebuild. The
// oscillation score tracks, over a sliding window of per-class admission
// moves, the fraction that reversed that class's previous direction —
// 0 means monotone convergence, 1 means pure flapping (the paper's
// motivation for thresholded enactment).
type Autopilot struct {
	b   *Broker
	eng *core.Engine

	enactThreshold float64
	itersPerCycle  int

	mu sync.Mutex
	// prob is the autopilot-owned clone the engine solves; rateMax0
	// preserves the configured RateMax ceilings the offered-rate cap can
	// never exceed.
	prob     *model.Problem
	rateMax0 []float64
	enacted  model.Allocation
	// attached is the per-class demand each cycle reads.
	attached []int32
	// Offered-rate estimation state: previous published+throttled totals
	// per flow, their EWMA rate, and the broker-clock time of the last
	// sync (so fake-clock tests stay deterministic).
	prevOffered []uint64
	offered     []float64
	lastSync    time.Time
	// Oscillation ring: one entry per enacted per-class admission move,
	// 1 when the move reversed the class's previous direction.
	lastDir    []int8
	ring       []int8
	ringPos    int
	ringSum    int
	cycles     int
	enactCount int
	skipped    int
	lastDelta  float64
	lastDemand int

	tel *telemetry.EnactMetrics
}

// AutopilotConfig tunes an Autopilot. The zero value enacts every change
// of at least 1% after up to 100 LRGP iterations per cycle.
type AutopilotConfig struct {
	// Core configures the embedded LRGP engine.
	Core core.Config
	// EnactThreshold is the minimum relative allocation change that
	// triggers enactment (default 0.01).
	EnactThreshold float64
	// ItersPerCycle bounds the LRGP iterations of each cycle's warm
	// re-solve (default 100).
	ItersPerCycle int
	// Telemetry, when non-nil, receives per-cycle observations (and is
	// typically the same handle passed to WithEnactTelemetry so apply
	// and cycle metrics land in one family).
	Telemetry *telemetry.EnactMetrics
}

const (
	// rateHeadroom scales a flow's estimated offered rate into its
	// effective RateMax, so a growing producer is not throttled for a whole
	// cycle before the bound catches up.
	rateHeadroom = 1.25
	// oscillationWindow is how many recent per-class admission moves the
	// oscillation score averages over.
	oscillationWindow = 64
)

// AutopilotStats is a snapshot of the autopilot's cycle accounting.
type AutopilotStats struct {
	Cycles  int
	Enacted int
	Skipped int
	// LastDelta is the allocation movement the most recent cycle
	// measured against the enact threshold.
	LastDelta float64
	// Oscillation is the current direction-reversal score in [0, 1].
	Oscillation float64
	// DemandConsumers is the total attached demand the most recent cycle
	// observed.
	DemandConsumers int
}

// NewAutopilot builds an autopilot around a broker. The engine solves a
// private clone of the broker's problem.
func NewAutopilot(b *Broker, cfg AutopilotConfig) (*Autopilot, error) {
	if cfg.EnactThreshold <= 0 {
		cfg.EnactThreshold = 0.01
	}
	if cfg.ItersPerCycle <= 0 {
		cfg.ItersPerCycle = 100
	}
	prob := b.Problem().Clone()
	eng, err := core.NewEngine(prob, cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("broker: autopilot: %w", err)
	}
	a := &Autopilot{
		b:              b,
		eng:            eng,
		enactThreshold: cfg.EnactThreshold,
		itersPerCycle:  cfg.ItersPerCycle,
		prob:           prob,
		rateMax0:       make([]float64, len(prob.Flows)),
		enacted:        model.NewAllocation(prob),
		prevOffered:    make([]uint64, len(prob.Flows)),
		offered:        make([]float64, len(prob.Flows)),
		lastSync:       b.now(),
		lastDir:        make([]int8, len(prob.Classes)),
		ring:           make([]int8, 0, oscillationWindow),
		tel:            cfg.Telemetry,
	}
	for i := range prob.Flows {
		a.rateMax0[i] = prob.Flows[i].RateMax
	}
	return a, nil
}

// Engine exposes the embedded engine (for snapshots between cycles; like
// every Engine method it must not be used concurrently with Cycle).
func (a *Autopilot) Engine() *core.Engine { return a.eng }

// Close releases the embedded engine's worker pool.
func (a *Autopilot) Close() { a.eng.Close() }

// Cycle runs one autopilot cycle: estimate demand and offered rates,
// perturb, warm re-solve, and enact if the allocation moved by at least
// the threshold. It reports the solved allocation and whether enactment
// happened.
func (a *Autopilot) Cycle() (model.Allocation, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// One clock for the whole cycle — the broker's, so a fake-clock test
	// sees the offered-rate window and the cycle duration move together.
	now := a.b.now()

	// Demand: one copy of the dense attached counts.
	a.attached = a.b.attachedCounts(a.attached)
	demand := 0
	for _, n := range a.attached {
		demand += int(n)
	}

	// Offered rates: publish-attempt deltas since the last cycle, on the
	// broker's clock. The EWMA smooths scrape jitter; the headroom keeps
	// a growing producer from being throttled for a whole cycle before
	// the bound catches up.
	dt := now.Sub(a.lastSync).Seconds()
	a.lastSync = now
	needReset := false
	if dt > 0 {
		for i := range a.prob.Flows {
			fs, err := a.b.FlowStats(model.FlowID(i))
			if err != nil {
				return model.Allocation{}, false, err
			}
			total := fs.Published + fs.Throttled
			inst := float64(total-a.prevOffered[i]) / dt
			a.prevOffered[i] = total
			if a.offered[i] == 0 {
				a.offered[i] = inst
			} else {
				a.offered[i] = 0.5*a.offered[i] + 0.5*inst
			}
			f := &a.prob.Flows[i]
			want := a.rateMax0[i]
			if a.offered[i] > 0 {
				if est := a.offered[i] * rateHeadroom; est < want {
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

	// Perturb: a rate-bound change needs the (warm) engine reset; pure
	// demand drift goes through the cheap in-place path.
	if needReset {
		for j, n := range a.attached {
			a.prob.Classes[j].MaxConsumers = int(n)
		}
		if err := a.eng.Reset(a.prob); err != nil {
			return model.Allocation{}, false, fmt.Errorf("broker: autopilot: %w", err)
		}
	} else {
		for j, n := range a.attached {
			if a.prob.Classes[j].MaxConsumers == int(n) {
				continue
			}
			if err := a.eng.SetClassDemand(model.ClassID(j), int(n)); err != nil {
				return model.Allocation{}, false, fmt.Errorf("broker: autopilot: %w", err)
			}
		}
	}

	res := a.eng.Solve(a.itersPerCycle)
	a.cycles++
	delta := maxRelChange(a.enacted, res.Allocation)
	enact := delta >= a.enactThreshold
	if enact {
		if err := a.b.ApplyAllocation(res.Allocation); err != nil {
			return res.Allocation, false, err
		}
		a.recordMovesLocked(res.Allocation)
		copy(a.enacted.Rates, res.Allocation.Rates)
		copy(a.enacted.Consumers, res.Allocation.Consumers)
		a.enactCount++
	} else {
		a.skipped++
	}
	a.lastDelta = delta
	a.lastDemand = demand
	a.tel.ObserveCycle(enact, a.b.now().Sub(now).Nanoseconds(), delta, a.oscillationLocked(), demand)
	return res.Allocation, enact, nil
}

// maxRelChange returns the largest relative change of any rate or
// admitted population between two same-shape allocations — the value the
// enactment threshold compares against.
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

// relChange is the symmetric relative difference |next-prev| / max(|prev|,
// |next|): 0 for equal values (including 0→0, where the naive ratio is
// 0/0) and 1 for any change away from or to a zero baseline — so a class
// going 0→1 consumers always crosses any threshold ≤ 1.
func relChange(prev, next float64) float64 {
	if prev == next {
		return 0
	}
	base := math.Max(math.Abs(prev), math.Abs(next))
	return math.Abs(next-prev) / base
}

// recordMovesLocked folds an enacted allocation's per-class admission
// moves into the oscillation ring, scoring each against the class's
// previous direction.
func (a *Autopilot) recordMovesLocked(next model.Allocation) {
	for j, n := range next.Consumers {
		prev := a.enacted.Consumers[j]
		if n == prev {
			continue
		}
		dir := int8(1)
		if n < prev {
			dir = -1
		}
		rev := int8(0)
		if a.lastDir[j] != 0 && dir != a.lastDir[j] {
			rev = 1
		}
		a.lastDir[j] = dir
		if len(a.ring) < cap(a.ring) {
			a.ring = append(a.ring, rev)
			a.ringSum += int(rev)
			continue
		}
		a.ringSum += int(rev) - int(a.ring[a.ringPos])
		a.ring[a.ringPos] = rev
		a.ringPos = (a.ringPos + 1) % len(a.ring)
	}
}

func (a *Autopilot) oscillationLocked() float64 {
	if len(a.ring) == 0 {
		return 0
	}
	return float64(a.ringSum) / float64(len(a.ring))
}

// Stats returns a snapshot of the autopilot's cycle accounting.
func (a *Autopilot) Stats() AutopilotStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AutopilotStats{
		Cycles:          a.cycles,
		Enacted:         a.enactCount,
		Skipped:         a.skipped,
		LastDelta:       a.lastDelta,
		Oscillation:     a.oscillationLocked(),
		DemandConsumers: a.lastDemand,
	}
}

// Loop runs Cycle every interval until stop is closed, then reports via
// done. Errors are delivered to errs (nil channel drops them). interval
// must be positive: the loop's ticker panics on anything else.
func (a *Autopilot) Loop(interval time.Duration, stop <-chan struct{}, errs chan<- error) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if _, _, err := a.Cycle(); err != nil && errs != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}
	}()
	return done
}
