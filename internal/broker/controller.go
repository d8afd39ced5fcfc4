package broker

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// Controller closes the self-optimization loop of the paper: it reads the
// current demand from the broker (attached consumers per class), runs the
// LRGP engine (which keeps running across invocations, warm-starting from
// its current prices), and enacts the resulting allocation — subject to an
// enactment threshold so that consumers are not churned by insignificant
// changes (Section 2.1: decisions "may not be enacted until their values
// are sufficiently different from the previous enacted values").
type Controller struct {
	b   *Broker
	eng *core.Engine

	// enactThreshold is the minimum relative change in any rate or
	// population that triggers enactment.
	enactThreshold float64
	itersPerCycle  int

	mu      sync.Mutex
	enacted model.Allocation
	cycles  int
	skipped int
	// statsBuf is the reusable AllClassStats buffer for demand sync,
	// guarded by mu like the rest of the cycle state.
	statsBuf []ClassStats
}

// ControllerConfig tunes a Controller. The zero value enacts every change
// of at least 1% after 100 LRGP iterations per cycle.
type ControllerConfig struct {
	// Core configures the embedded LRGP engine (adaptive gamma is a good
	// default for a long-running controller).
	Core core.Config
	// EnactThreshold is the minimum relative change that triggers
	// enactment (default 0.01).
	EnactThreshold float64
	// ItersPerCycle is how many LRGP iterations each Reoptimize runs
	// (default 100).
	ItersPerCycle int
}

// NewController builds a controller around a broker.
func NewController(b *Broker, cfg ControllerConfig) (*Controller, error) {
	if cfg.EnactThreshold <= 0 {
		cfg.EnactThreshold = 0.01
	}
	if cfg.ItersPerCycle <= 0 {
		cfg.ItersPerCycle = 100
	}
	eng, err := core.NewEngine(b.Problem(), cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("broker: controller: %w", err)
	}
	return &Controller{
		b:              b,
		eng:            eng,
		enactThreshold: cfg.EnactThreshold,
		itersPerCycle:  cfg.ItersPerCycle,
		enacted:        model.NewAllocation(b.Problem()),
	}, nil
}

// Engine exposes the embedded engine (e.g. for flow removal).
func (c *Controller) Engine() *core.Engine { return c.eng }

// Reoptimize runs one control cycle: sync demand, iterate LRGP, and enact
// if the allocation moved by at least the threshold. It reports whether
// enactment happened and the allocation the engine produced.
func (c *Controller) Reoptimize() (model.Allocation, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Demand sync: each class's n^max becomes its attached-consumer
	// count (consumers wanting service, per the problem definition). A
	// class with no attached consumers keeps max 0 and is skipped by the
	// greedy allocator. One AllClassStats snapshot replaces the previous
	// per-class ClassStats loop — with thousands of classes that loop
	// was the controller's dominant cost before the solve even started.
	// Changes go through SetClassDemand, not straight into the problem the
	// engine shares with the broker: the incremental Step re-runs a node's
	// admission only when told its inputs moved, so a silent write would
	// leave new demand unadmitted at a node already at its fixpoint.
	classes := c.eng.Problem().Classes
	c.statsBuf = c.b.AllClassStats(c.statsBuf)
	for j, stats := range c.statsBuf {
		if classes[j].MaxConsumers == stats.Attached {
			continue
		}
		if err := c.eng.SetClassDemand(model.ClassID(j), stats.Attached); err != nil {
			return model.Allocation{}, false, fmt.Errorf("broker: controller: %w", err)
		}
	}

	res := c.eng.Solve(c.itersPerCycle)
	c.cycles++

	if !c.worthEnacting(res.Allocation) {
		c.skipped++
		return res.Allocation, false, nil
	}
	if err := c.b.ApplyAllocation(res.Allocation); err != nil {
		return res.Allocation, false, err
	}
	c.enacted = res.Allocation.Clone()
	return res.Allocation, true, nil
}

// worthEnacting applies the relative-change threshold against the last
// enacted allocation.
func (c *Controller) worthEnacting(a model.Allocation) bool {
	return maxRelChange(c.enacted, a) >= c.enactThreshold
}

// maxRelChange returns the largest relative change of any rate or
// admitted population between two same-shape allocations — the value the
// enactment threshold compares against, shared by the Controller and the
// Autopilot.
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

// Cycles returns how many Reoptimize calls ran and how many skipped
// enactment.
func (c *Controller) Cycles() (total, skipped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cycles, c.skipped
}

// Loop runs Reoptimize every interval until stop is closed, then reports
// via done. Errors are delivered to errs (nil channel drops them).
func (c *Controller) Loop(interval time.Duration, stop <-chan struct{}, errs chan<- error) <-chan struct{} {
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
				if _, _, err := c.Reoptimize(); err != nil && errs != nil {
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
