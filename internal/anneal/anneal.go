// Package anneal implements the centralized simulated-annealing baseline of
// Section 4.4 of the LRGP paper, used to assess the quality of LRGP's
// solutions.
//
// The state space is a full allocation (one rate per flow, one admitted
// population per class); the energy is the negated total utility; moves
// perturb a single rate or a single population and are rejected when they
// violate any constraint of Section 2. The cooling schedule follows the
// paper: a start temperature from {5, 10, 50, 100}, geometric cooling by
// 0.999 per round until the temperature reaches 1, and a total step budget
// divided equally among rounds.
package anneal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/model"
)

// Paper cooling-schedule constants.
const (
	// DefaultCoolRate multiplies the temperature each round.
	DefaultCoolRate = 0.999
	// DefaultMinTemp ends the schedule.
	DefaultMinTemp = 1.0
	// DefaultStartTemp is the lowest of the paper's start temperatures.
	DefaultStartTemp = 5.0
	// DefaultMaxSteps is a laptop-friendly budget; the paper sweeps
	// {1e6, 1e7, 1e8}.
	DefaultMaxSteps = 1_000_000
)

// Move sizes: a rate move perturbs by up to rateStep of the flow's rate
// range, a population move by up to popStep of the class's n^max (never
// below one consumer), and a proposal is a rate move with probability
// rateMoveProb.
const (
	rateStep     = 0.1
	popStep      = 0.05
	rateMoveProb = 0.5
)

// StartTemps are the four start temperatures the paper evaluates.
var StartTemps = []float64{5, 10, 50, 100}

// ErrInfeasibleStart is returned when even the minimal state (all rates at
// r^min, no consumers) violates a constraint, leaving annealing nowhere to
// begin.
var ErrInfeasibleStart = errors.New("anneal: minimal state infeasible")

// Config tunes a simulated-annealing run. The zero value is normalized to
// the defaults above with seed 1; the schedule cools by DefaultCoolRate per
// round down to DefaultMinTemp.
type Config struct {
	// StartTemp is the initial temperature (default DefaultStartTemp).
	StartTemp float64
	// MaxSteps is the total step budget across all rounds (default
	// DefaultMaxSteps).
	MaxSteps int
	// Seed seeds the move generator (default 1).
	Seed int64
}

// normalized replaces every unset field by its default; model.Option
// refuses a StartTemp or MaxSteps that is NaN, ±Inf or negative.
func (c Config) normalized() (Config, error) {
	var errs [2]error
	c.StartTemp, errs[0] = model.Option("Config.StartTemp", c.StartTemp, DefaultStartTemp)
	c.MaxSteps, errs[1] = model.Option("Config.MaxSteps", c.MaxSteps, DefaultMaxSteps)
	if err := errors.Join(errs[:]...); err != nil {
		return Config{}, fmt.Errorf("anneal: %w", err)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// Rounds returns the number of temperature rounds the schedule will run:
// the count of multiplications by DefaultCoolRate needed to bring StartTemp
// to or below DefaultMinTemp. A config Solve refuses has 0 rounds.
func (c Config) Rounds() int {
	cfg, err := c.normalized()
	switch {
	case err != nil:
		return 0
	case cfg.StartTemp <= DefaultMinTemp:
		return 1
	}
	return int(math.Ceil(math.Log(DefaultMinTemp/cfg.StartTemp)/math.Log(DefaultCoolRate))) + 1
}

// Result reports a completed annealing run.
type Result struct {
	// BestUtility is the highest total utility visited.
	BestUtility float64
	// Best is the allocation achieving BestUtility.
	Best model.Allocation
	// FinalUtility is the utility of the state where the walk ended.
	FinalUtility float64
	// Steps is the number of proposed moves.
	Steps int
	// Accepted counts accepted moves; Improved counts strict improvements.
	Accepted, Improved int
	// Rounds is the number of temperature rounds executed.
	Rounds int
	// Runtime is the wall-clock duration of the run.
	Runtime time.Duration
}

// state carries the incremental bookkeeping that makes move evaluation
// O(affected resources) instead of O(problem).
type state struct {
	p  *model.Problem
	ix *model.Index

	alloc    model.Allocation
	utility  float64
	nodeUsed []float64
	linkUsed []float64
}

func newState(p *model.Problem, ix *model.Index) (*state, error) {
	s := &state{
		p:        p,
		ix:       ix,
		alloc:    model.NewAllocation(p),
		nodeUsed: make([]float64, len(p.Nodes)),
		linkUsed: make([]float64, len(p.Links)),
	}
	for b := range p.Nodes {
		s.nodeUsed[b] = model.NodeUsage(p, ix, s.alloc, model.NodeID(b))
		if s.nodeUsed[b] > p.Nodes[b].Capacity {
			return nil, fmt.Errorf("%w: node %d needs %g > capacity %g at minimal rates",
				ErrInfeasibleStart, b, s.nodeUsed[b], p.Nodes[b].Capacity)
		}
	}
	for l := range p.Links {
		s.linkUsed[l] = model.LinkUsage(p, ix, s.alloc, model.LinkID(l))
		if s.linkUsed[l] > p.Links[l].Capacity {
			return nil, fmt.Errorf("%w: link %d needs %g > capacity %g at minimal rates",
				ErrInfeasibleStart, l, s.linkUsed[l], p.Links[l].Capacity)
		}
	}
	s.utility = model.TotalUtility(p, s.alloc)
	return s, nil
}

// tryRate evaluates changing flow i's rate to r. It returns the utility
// delta and feasible=false (without mutating) if any touched resource would
// overflow; on feasible=true the caller decides acceptance and then must
// call applyRate or nothing.
func (s *state) tryRate(i model.FlowID, r float64) (du float64, feasible bool) {
	old := s.alloc.Rates[i]
	f := &s.p.Flows[i]
	if r < f.RateMin || r > f.RateMax {
		return 0, false
	}
	dr := r - old

	lcosts := s.ix.LinkCostsByFlow(i)
	for k, l := range s.ix.LinksByFlow(i) {
		if s.linkUsed[l]+lcosts[k]*dr > s.p.Links[l].Capacity {
			return 0, false
		}
	}
	ncosts := s.ix.NodeCostsByFlow(i)
	for k, b := range s.ix.NodesByFlow(i) {
		if s.nodeUsed[b]+s.nodeRateCoeff(b, i, ncosts[k])*dr > s.p.Nodes[b].Capacity {
			return 0, false
		}
	}
	for _, cid := range s.ix.ClassesByFlow(i) {
		c := &s.p.Classes[cid]
		if n := s.alloc.Consumers[cid]; n > 0 {
			du += float64(n) * (c.Utility.Value(r) - c.Utility.Value(old))
		}
	}
	return du, true
}

// applyRate commits a rate change previously vetted by tryRate.
func (s *state) applyRate(i model.FlowID, r, du float64) {
	old := s.alloc.Rates[i]
	dr := r - old
	lcosts := s.ix.LinkCostsByFlow(i)
	for k, l := range s.ix.LinksByFlow(i) {
		s.linkUsed[l] += lcosts[k] * dr
	}
	ncosts := s.ix.NodeCostsByFlow(i)
	for k, b := range s.ix.NodesByFlow(i) {
		s.nodeUsed[b] += s.nodeRateCoeff(b, i, ncosts[k]) * dr
	}
	s.alloc.Rates[i] = r
	s.utility += du
}

// nodeRateCoeff is d(nodeUsage_b)/d(r_i): F_{b,i} (given as f) plus the
// consumer terms of flow i's classes at b.
func (s *state) nodeRateCoeff(b model.NodeID, i model.FlowID, f float64) float64 {
	coeff := f
	for _, cid := range s.ix.ClassesByNode(b) {
		c := &s.p.Classes[cid]
		if c.Flow == i {
			coeff += c.CostPerConsumer * float64(s.alloc.Consumers[cid])
		}
	}
	return coeff
}

// tryPop evaluates changing class j's population to n.
func (s *state) tryPop(j model.ClassID, n int) (du float64, feasible bool) {
	c := &s.p.Classes[j]
	if n < 0 || n > c.MaxConsumers {
		return 0, false
	}
	old := s.alloc.Consumers[j]
	r := s.alloc.Rates[c.Flow]
	dUse := c.CostPerConsumer * float64(n-old) * r
	if s.nodeUsed[c.Node]+dUse > s.p.Nodes[c.Node].Capacity {
		return 0, false
	}
	return float64(n-old) * c.Utility.Value(r), true
}

// applyPop commits a population change previously vetted by tryPop.
func (s *state) applyPop(j model.ClassID, n int, du float64) {
	c := &s.p.Classes[j]
	old := s.alloc.Consumers[j]
	r := s.alloc.Rates[c.Flow]
	s.nodeUsed[c.Node] += c.CostPerConsumer * float64(n-old) * r
	s.alloc.Consumers[j] = n
	s.utility += du
}

// Solve runs simulated annealing on the problem and returns the best
// allocation found. The problem must validate.
func Solve(p *model.Problem, cfg Config) (Result, error) {
	if err := model.Validate(p); err != nil {
		return Result{}, fmt.Errorf("anneal: %w", err)
	}
	c, err := cfg.normalized()
	if err != nil {
		return Result{}, err
	}
	ix := model.NewIndex(p)
	s, err := newState(p, ix)
	if err != nil {
		return Result{}, err
	}

	rng := rand.New(rand.NewSource(c.Seed))
	rounds := c.Rounds()
	stepsPerRound := c.MaxSteps / rounds
	if stepsPerRound < 1 {
		stepsPerRound = 1
	}

	res := Result{
		BestUtility: s.utility,
		Best:        s.alloc.Clone(),
	}
	start := time.Now()

	temp := c.StartTemp
	for round := 0; round < rounds; round++ {
		for step := 0; step < stepsPerRound; step++ {
			res.Steps++
			du, commit := s.propose(rng)
			if commit == nil {
				continue // infeasible proposal
			}
			if du > 0 || rng.Float64() < math.Exp(du/temp) {
				commit()
				res.Accepted++
				if du > 0 {
					res.Improved++
				}
				if s.utility > res.BestUtility {
					res.BestUtility = s.utility
					res.Best = s.alloc.Clone()
				}
			}
		}
		temp *= DefaultCoolRate
	}

	res.FinalUtility = s.utility
	res.Rounds = rounds
	res.Runtime = time.Since(start)
	return res, nil
}

// propose draws one candidate move. It returns the utility delta and a
// commit closure, or nil when the move is infeasible.
func (s *state) propose(rng *rand.Rand) (float64, func()) {
	if rng.Float64() < rateMoveProb {
		i := model.FlowID(rng.Intn(len(s.p.Flows)))
		f := &s.p.Flows[i]
		span := (f.RateMax - f.RateMin) * rateStep
		r := s.alloc.Rates[i] + (rng.Float64()*2-1)*span
		if r < f.RateMin {
			r = f.RateMin
		}
		if r > f.RateMax {
			r = f.RateMax
		}
		du, ok := s.tryRate(i, r)
		if !ok {
			return 0, nil
		}
		return du, func() { s.applyRate(i, r, du) }
	}

	j := model.ClassID(rng.Intn(len(s.p.Classes)))
	cl := &s.p.Classes[j]
	span := int(float64(cl.MaxConsumers) * popStep)
	if span < 1 {
		span = 1
	}
	n := s.alloc.Consumers[j] + rng.Intn(2*span+1) - span
	if n < 0 {
		n = 0
	}
	if n > cl.MaxConsumers {
		n = cl.MaxConsumers
	}
	du, ok := s.tryPop(j, n)
	if !ok {
		return 0, nil
	}
	return du, func() { s.applyPop(j, n, du) }
}

// SolveBestOf runs Solve once per start temperature and returns the best
// result together with the winning temperature, mirroring the paper's
// "best of twelve runs" methodology (the step budgets are supplied by the
// caller).
func SolveBestOf(p *model.Problem, cfg Config, startTemps []float64) (Result, float64, error) {
	if len(startTemps) == 0 {
		startTemps = StartTemps
	}
	var (
		best     Result
		bestTemp float64
		found    bool
	)
	for _, temp := range startTemps {
		c := cfg
		c.StartTemp = temp
		r, err := Solve(p, c)
		if err != nil {
			return Result{}, 0, err
		}
		if !found || r.BestUtility > best.BestUtility {
			best, bestTemp, found = r, temp, true
		}
	}
	return best, bestTemp, nil
}
