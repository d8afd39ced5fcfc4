package core

// Price computation (Sections 3.3 and 3.4).
//
// Node prices dampen toward the benefit-cost ratio of the best unsatisfied
// class (Equation 12); the stepsize gamma is either fixed or adapted per
// node with the Section 4.2 heuristic. Link prices follow the gradient
// projection of Low & Lapsley (Equation 13).

// gammaBank holds the Section 4.2 adaptive stepsize state of a set of nodes
// in structure-of-arrays layout — the Engine's, one entry per node slot:
// its price sweep reads val[s] with a plain indexed load, and the
// controller-state arrays are touched only on the observe path. A
// NodePricer keeps a bank of one.
//
// While the node's price is not fluctuating, gamma grows additively; when
// a fluctuation is detected it is halved; it is clamped to [min, max]. The
// controller watches the price-update *gap* — the distance the Equation 12
// update is trying to move the price (BC - p when within capacity, the
// overload excess otherwise) — rather than the applied delta, because the
// delta's magnitude is proportional to gamma itself. Each observation is
// scored by its relative significance
//
//	s = |gap| / (|price| + |gap|),
//
// which is ~0 for equilibrium jitter and ~1 when the price is far from its
// target. Three regimes follow:
//
//   - sign flip with s above the dead band: genuine oscillation, halve;
//   - s above the surge threshold AND the gap one-signed for at least
//     surgeRuns observations: far from equilibrium (workload change,
//     startup), ramp gamma multiplicatively for fast recovery — the run
//     requirement keeps large-amplitude oscillation from re-triggering
//     the ramp;
//   - otherwise: quiet, grow additively (the paper's +0.001).
type gammaBank struct {
	val      []float64
	prevGap  []float64
	sameRun  []int32
	havePrev []bool

	init     float64
	min, max float64
	step     float64
	deadband float64
	surge    float64
}

// surgeRuns is how many consecutive same-signed significant gaps must be
// seen before the multiplicative ramp engages.
const surgeRuns = 3

// newGammaBank builds the bank for n nodes, each starting at the upper
// bound; literal selects Config.GammaLiteral's behaviour.
func newGammaBank(literal bool, n int) *gammaBank {
	g := &gammaBank{
		init:     DefaultGammaMax,
		min:      DefaultGammaMin,
		max:      DefaultGammaMax,
		step:     DefaultGammaStep,
		deadband: DefaultGammaDeadband,
		surge:    DefaultGammaSurge,
	}
	if literal {
		// The paper's heuristic verbatim: every sign flip counts, no
		// multiplicative ramp (surge > 1 can never trigger since the
		// significance score s is bounded by 1).
		g.deadband = 0
		g.surge = 2
	}
	g.grow(n)
	return g
}

// grow appends n nodes at their initial state.
func (g *gammaBank) grow(n int) {
	k := len(g.val)
	g.val = append(g.val, make([]float64, n)...)
	for b := k; b < len(g.val); b++ {
		g.val[b] = g.init
	}
	g.prevGap = append(g.prevGap, make([]float64, n)...)
	g.sameRun = append(g.sameRun, make([]int32, n)...)
	g.havePrev = append(g.havePrev, make([]bool, n)...)
}

// reseed returns node b's controller to its initial state. A routing
// change rewrites the node's flow membership, so the stepsize adapted to
// the old local problem — possibly deep in an equilibrium dead band — is
// no longer evidence about the new one; starting the heuristic over
// avoids inheriting a gamma that sustains a limit cycle the fresh
// controller would have damped.
func (g *gammaBank) reseed(b int) {
	g.val[b] = g.init
	g.prevGap[b] = 0
	g.sameRun[b] = 0
	g.havePrev[b] = false
}

// observe folds one price-update gap, and the price level it applied to,
// into node b's controller and sets val[b] to the gamma for its next
// update.
func (g *gammaBank) observe(b int, gap, price float64) {
	s := 0.0
	if gap != 0 {
		s = abs(gap) / (abs(price) + abs(gap))
	}
	prevGap, havePrev := g.prevGap[b], g.havePrev[b]
	flipped := havePrev && s > g.deadband && gap*prevGap < 0
	if s > g.deadband {
		if flipped {
			g.sameRun[b] = 0
		} else if havePrev && gap*prevGap > 0 {
			g.sameRun[b]++
		}
		g.prevGap[b], g.havePrev[b] = gap, true
	}
	gamma := g.val[b]
	switch {
	case flipped:
		gamma /= 2
	case s > g.surge && g.sameRun[b] >= surgeRuns:
		gamma *= 2
	default:
		gamma += g.step
	}
	g.val[b] = clamp(gamma, g.min, g.max)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// nodePriceUpdate applies Equation 12, with the paper's gamma1 = gamma2 =
// gamma, and returns the new price.
//
//	p(t+1) = p(t) + gamma*(BC(b,t) - p(t))   if used <= capacity
//	p(t+1) = p(t) + gamma*(used - capacity)  if used >  capacity
//
// Prices are projected by project.
func nodePriceUpdate(price, bestBC, used, capacity, gamma float64) float64 {
	if used <= capacity {
		return project(price + gamma*(bestBC-price))
	}
	return project(price + gamma*(used-capacity))
}

// minNormal is the smallest normal float64, 2^-1022.
const minNormal = 0x1p-1022

// project is the projection of Equations 12 and 13 onto [0, inf), with
// everything below the smallest normal float64 sent to exactly 0. A slack
// node's price decays by 1-gamma per Step; without the floor it would sink
// into the subnormal range and stay there (at gamma <= 1/2 rounding stops
// it short of 0), and subnormal operands take the x86 slow path, ≈100x the
// cost of a normal multiply or divide, in every flow-price, gap and gamma
// computation that reads the price. A price of 2^-1022 is ≈1e-304 of any
// marginal utility the rate solver compares it with, so the floor changes
// no allocation. NaN compares false and passes through unchanged.
func project(next float64) float64 {
	if next < minNormal {
		return 0
	}
	return next
}

// priceGap returns the distance the Equation 12 update is pulling the
// price: BC - p within capacity, the overload excess otherwise. The
// adaptive controller watches this signal.
func priceGap(price, bestBC, used, capacity float64) float64 {
	if used <= capacity {
		return bestBC - price
	}
	return used - capacity
}

// linkPriceUpdate applies Equation 13 with projection onto [0, inf):
//
//	p(t+1) = [p(t) + gamma_l * (sum_i L_{l,i} r_i - c_l)]+
func linkPriceUpdate(price, used, capacity, gamma float64) float64 {
	return project(price + gamma*(used-capacity))
}
