package overlay

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
)

// RandomTopology generates a connected random overlay using a Waxman-like
// construction: nodes are placed uniformly in the unit square, a random
// spanning tree guarantees connectivity, and extra bidirectional links are
// added between pairs with probability alpha * exp(-distance/(beta*L))
// where L is the maximum possible distance. All links share one capacity.
// The generator is deterministic for a given rand source. An alpha, beta
// or capacity of 0 takes its default (0.4, 0.3, 1e6); a NaN, ±Inf or
// negative one panics, naming the argument.
func RandomTopology(rng *rand.Rand, n int, alpha, beta, capacity float64) *Topology {
	if n < 1 {
		n = 1
	}
	const gen = "RandomTopology"
	alpha = mustOption(gen, "alpha", alpha, 0.4)
	beta = mustOption(gen, "beta", beta, 0.3)
	capacity = mustOption(gen, "capacity", capacity, 1e6)

	t := NewTopology(n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(a, b int) float64 {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return math.Sqrt(dx*dx + dy*dy)
	}

	// Random spanning tree: connect each node (in shuffled order) to a
	// uniformly chosen earlier node.
	order := rng.Perm(n)
	for k := 1; k < n; k++ {
		a := order[k]
		b := order[rng.Intn(k)]
		addPair(t, a, b, capacity)
	}

	// Waxman extras.
	maxDist := math.Sqrt2
	connected := make(map[[2]int]bool)
	for _, l := range t.Links() {
		connected[[2]int{int(l.From), int(l.To)}] = true
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if connected[[2]int{a, b}] {
				continue
			}
			p := alpha * math.Exp(-dist(a, b)/(beta*maxDist))
			if rng.Float64() < p {
				addPair(t, a, b, capacity)
			}
		}
	}
	return t
}

// RandomTopologyHetero generates a connected random overlay sized for
// large-scale experiments: a random spanning tree guarantees connectivity
// and each node samples extraPerNode additional neighbors uniformly, so
// construction is O(n * extraPerNode) — unlike RandomTopology's O(n²)
// Waxman pair scan, this stays fast at 10k+ nodes. Link capacities are
// heterogeneous, drawn log-uniformly from [capMin, capMax] per
// bidirectional pair (both directions share one capacity), modeling the
// capacity-diverse substrates of the MON / node+link-constrained papers.
// Deterministic for a given rand source. A capMin of 0 means 1e3 and a
// capMax of 0 (or one below capMin) means capMin; a NaN, ±Inf or negative
// capacity panics, naming the argument.
func RandomTopologyHetero(rng *rand.Rand, n, extraPerNode int, capMin, capMax float64) *Topology {
	if n < 1 {
		n = 1
	}
	if extraPerNode < 0 {
		extraPerNode = 0
	}
	const gen = "RandomTopologyHetero"
	capMin = mustOption(gen, "capMin", capMin, 1e3)
	capMax = max(mustOption(gen, "capMax", capMax, capMin), capMin)

	t := NewTopology(n)
	logMin, logMax := math.Log(capMin), math.Log(capMax)
	drawCap := func() float64 {
		c := math.Exp(logMin + rng.Float64()*(logMax-logMin))
		if math.IsInf(c, 1) { // exp(log(capMax)) overflows near MaxFloat64
			c = capMax
		}
		return c
	}

	// Random spanning tree, as in RandomTopology.
	order := rng.Perm(n)
	for k := 1; k < n; k++ {
		a := order[k]
		b := order[rng.Intn(k)]
		addPair(t, a, b, drawCap())
	}

	// Per-node sampled extras; duplicates are skipped, not retried, so the
	// expected degree is slightly under 2*(1+extraPerNode).
	connected := make(map[[2]int]bool, n*(1+extraPerNode))
	for _, l := range t.Links() {
		a, b := int(l.From), int(l.To)
		if a > b {
			a, b = b, a
		}
		connected[[2]int{a, b}] = true
	}
	for a := 0; a < n; a++ {
		for k := 0; k < extraPerNode; k++ {
			b := rng.Intn(n)
			if b == a {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if connected[[2]int{lo, hi}] {
				continue
			}
			connected[[2]int{lo, hi}] = true
			addPair(t, a, b, drawCap())
		}
	}
	return t
}

// mustOption is model.Option for a generator argument: 0 takes def, and a
// NaN, ±Inf or negative value panics naming the argument — the generators
// return no error, and such a value would otherwise leave every link out
// (NaN), make every link infinite (+Inf) or drop every extra (NaN alpha).
func mustOption(gen, name string, v, def float64) float64 {
	v, err := model.Option(name, v, def)
	if err != nil {
		panic(fmt.Errorf("overlay: %s: %w", gen, err))
	}
	return v
}

// addPair adds the bidirectional link a<->b. The generators pass distinct
// in-range endpoints and a finite capacity above 0, so an error here is a
// bug in them.
func addPair(t *Topology, a, b int, capacity float64) {
	if _, _, err := t.AddBidirectional(model.NodeID(a), model.NodeID(b), capacity); err != nil {
		panic(err)
	}
}
