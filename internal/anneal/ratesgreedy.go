package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// SolveRatesGreedy runs simulated annealing over the flow-rate vector only,
// evaluating each candidate state by running the greedy consumer allocation
// (Algorithm 2 of the paper) at every node. The search space is |F|
// continuous variables instead of |F| + |C| mixed variables, and every
// visited state is feasible by construction of the greedy step, so the
// walk cannot freeze in the nonconvex high-rate trap that defeats
// full-state annealing at the paper's temperatures (see Solve).
//
// The cooling schedule is identical to Solve's. Link constraints are
// enforced by rejecting rate vectors that overload any link.
func SolveRatesGreedy(p *model.Problem, cfg Config) (Result, error) {
	if err := model.Validate(p); err != nil {
		return Result{}, fmt.Errorf("anneal: %w", err)
	}
	c, err := cfg.normalized()
	if err != nil {
		return Result{}, err
	}
	ix := model.NewIndex(p)
	rng := rand.New(rand.NewSource(c.Seed))

	rates := make([]float64, len(p.Flows))
	for i, f := range p.Flows {
		rates[i] = f.RateMin
	}
	linkUsed := make([]float64, len(p.Links))
	cur := model.Allocation{Rates: rates}
	for l := range p.Links {
		linkUsed[l] = model.LinkUsage(p, ix, cur, model.LinkID(l))
		if linkUsed[l] > p.Links[l].Capacity {
			return Result{}, fmt.Errorf("%w: link %d needs %g > capacity %g at minimal rates",
				ErrInfeasibleStart, l, linkUsed[l], p.Links[l].Capacity)
		}
	}

	consumers, utility := core.GreedyPopulations(p, ix, rates)

	rounds := c.Rounds()
	stepsPerRound := c.MaxSteps / rounds
	if stepsPerRound < 1 {
		stepsPerRound = 1
	}

	res := Result{
		BestUtility: utility,
		Best: model.Allocation{
			Rates:     append([]float64(nil), rates...),
			Consumers: consumers,
		},
	}
	start := time.Now()

	temp := c.StartTemp
	for round := 0; round < rounds; round++ {
		for step := 0; step < stepsPerRound; step++ {
			res.Steps++

			i := model.FlowID(rng.Intn(len(p.Flows)))
			f := &p.Flows[i]
			span := (f.RateMax - f.RateMin) * rateStep
			old := rates[i]
			next := old + (rng.Float64()*2-1)*span
			if next < f.RateMin {
				next = f.RateMin
			}
			if next > f.RateMax {
				next = f.RateMax
			}

			// Reject link overload before paying for a greedy pass.
			dr := next - old
			feasible := true
			lcosts := ix.LinkCostsByFlow(i)
			for k, l := range ix.LinksByFlow(i) {
				if linkUsed[l]+lcosts[k]*dr > p.Links[l].Capacity {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}

			rates[i] = next
			candConsumers, candUtility := core.GreedyPopulations(p, ix, rates)
			du := candUtility - utility
			if du > 0 || rng.Float64() < math.Exp(du/temp) {
				res.Accepted++
				if du > 0 {
					res.Improved++
				}
				utility = candUtility
				consumers = candConsumers
				for k, l := range ix.LinksByFlow(i) {
					linkUsed[l] += lcosts[k] * dr
				}
				if utility > res.BestUtility {
					res.BestUtility = utility
					res.Best = model.Allocation{
						Rates:     append([]float64(nil), rates...),
						Consumers: consumers,
					}
				}
			} else {
				rates[i] = old
			}
		}
		temp *= DefaultCoolRate
	}

	res.FinalUtility = utility
	res.Rounds = rounds
	res.Runtime = time.Since(start)
	return res, nil
}

// SolveRatesGreedyBestOf mirrors SolveBestOf for the rates-only variant.
func SolveRatesGreedyBestOf(p *model.Problem, cfg Config, startTemps []float64) (Result, float64, error) {
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
		r, err := SolveRatesGreedy(p, c)
		if err != nil {
			return Result{}, 0, err
		}
		if !found || r.BestUtility > best.BestUtility {
			best, bestTemp, found = r, temp, true
		}
	}
	return best, bestTemp, nil
}
