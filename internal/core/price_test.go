package core

import (
	"math"
	"testing"
)

func TestNodePriceDampensTowardBC(t *testing.T) {
	// Underloaded: p <- p + gamma*(BC - p).
	got := nodePriceUpdate(1.0, 2.0, 500, 1000, 0.1)
	if math.Abs(got-1.1) > 1e-12 {
		t.Errorf("price = %g, want 1.1", got)
	}
	// Moves down when BC < p.
	got = nodePriceUpdate(1.0, 0.0, 500, 1000, 0.1)
	if math.Abs(got-0.9) > 1e-12 {
		t.Errorf("price = %g, want 0.9", got)
	}
}

func TestNodePriceOverloadBranch(t *testing.T) {
	// Overloaded: p <- p + gamma*(used - capacity).
	got := nodePriceUpdate(1.0, 99.0, 1500, 1000, 0.01)
	if math.Abs(got-6.0) > 1e-12 {
		t.Errorf("price = %g, want 6 (1 + 0.01*500)", got)
	}
}

func TestNodePriceExactCapacityUsesBCBranch(t *testing.T) {
	// used == capacity takes the first branch per Equation 12.
	got := nodePriceUpdate(2.0, 4.0, 1000, 1000, 0.5)
	if math.Abs(got-3.0) > 1e-12 {
		t.Errorf("price = %g, want 3", got)
	}
}

func TestNodePriceNonNegative(t *testing.T) {
	// gamma > 1 could overshoot below zero; projection clamps.
	got := nodePriceUpdate(1.0, 0.0, 500, 1000, 1.5)
	if got != 0 {
		t.Errorf("price = %g, want 0", got)
	}
}

// TestProjectFloorsAtSmallestNormal: both updates send a result below the
// smallest normal float64 to exactly 0, keep 2^-1022 itself, and pass NaN
// through as before. Each case makes the update produce x exactly: within
// capacity from price 0 at γ1 = 1 toward BC = x, overloaded from price x at
// γ2 = 0, and a link from price x at zero excess.
func TestProjectFloorsAtSmallestNormal(t *testing.T) {
	largestSubnormal := math.Float64frombits(1<<52 - 1)
	for _, c := range []struct {
		name string
		x    float64
		want float64
	}{
		{"smallest normal", 0x1p-1022, 0x1p-1022},
		{"one", 1, 1},
		{"2^-1023", 0x1p-1023, 0},
		{"largest subnormal", largestSubnormal, 0},
		{"smallest subnormal", math.SmallestNonzeroFloat64, 0},
		{"negative subnormal", -math.SmallestNonzeroFloat64, 0},
		{"negative", -1, 0},
		{"-Inf", math.Inf(-1), 0},
		{"+Inf", math.Inf(1), math.Inf(1)},
		{"NaN", math.NaN(), math.NaN()},
	} {
		for _, u := range []struct {
			name string
			got  float64
		}{
			{"node within capacity", nodePriceUpdate(0, c.x, 1, 2, 1)},
			{"node overloaded", nodePriceUpdate(c.x, 0, 2, 1, 0)},
			{"link", linkPriceUpdate(c.x, 1, 1, 1)},
		} {
			if u.got != c.want && !(math.IsNaN(u.got) && math.IsNaN(c.want)) {
				t.Errorf("%s, %s: got %v (bits %#x), want %v", c.name, u.name, u.got, math.Float64bits(u.got), c.want)
			}
		}
	}
}

func TestLinkPriceGradientProjection(t *testing.T) {
	// Overloaded link: price rises.
	got := linkPriceUpdate(1.0, 600, 500, 0.01)
	if math.Abs(got-2.0) > 1e-12 {
		t.Errorf("price = %g, want 2", got)
	}
	// Underloaded link: price falls.
	got = linkPriceUpdate(1.0, 400, 500, 0.005)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("price = %g, want 0.5", got)
	}
	// Projection at zero.
	got = linkPriceUpdate(0.1, 100, 500, 0.01)
	if got != 0 {
		t.Errorf("price = %g, want 0", got)
	}
}

// controller is one node's adaptive stepsize: a one-node gammaBank, as a
// NodePricer keeps it.
type controller struct{ *gammaBank }

// observe folds in one gap and returns the gamma for the next update.
func (g controller) observe(gap, price float64) float64 {
	g.gammaBank.observe(0, gap, price)
	return g.val[0]
}

// controllerAt is the default controller (bounds [0.001, 0.1], step 0.001,
// dead band 0.01, surge 0.3) moved to the given gamma.
func controllerAt(gamma float64) controller {
	g := newGammaBank(false, 1)
	g.val[0] = gamma
	return controller{g}
}

func TestGammaControllerIncreasesWhenQuiet(t *testing.T) {
	g := controllerAt(0.05)
	// Deltas with a constant sign: gamma grows additively.
	got := g.observe(0.1, 1)
	if math.Abs(got-0.051) > 1e-12 {
		t.Errorf("gamma = %g, want 0.051", got)
	}
	got = g.observe(0.2, 1)
	if math.Abs(got-0.052) > 1e-12 {
		t.Errorf("gamma = %g, want 0.052", got)
	}
}

func TestGammaControllerHalvesOnFluctuation(t *testing.T) {
	g := controllerAt(0.08)
	g.observe(0.1, 1)  // 0.081
	g.observe(-0.1, 1) // sign flip: halve to 0.0405
	if math.Abs(g.val[0]-0.0405) > 1e-12 {
		t.Errorf("gamma = %g, want 0.0405", g.val[0])
	}
}

func TestGammaControllerClamps(t *testing.T) {
	g := controllerAt(0.1)
	// Quiet forever: stays at max.
	for i := 0; i < 10; i++ {
		g.observe(0.1, 1)
	}
	if g.val[0] != 0.1 {
		t.Errorf("gamma = %g, want clamped at 0.1", g.val[0])
	}
	// Oscillate forever: floors at min.
	sign := 1.0
	for i := 0; i < 30; i++ {
		g.observe(sign, 1)
		sign = -sign
	}
	if g.val[0] != 0.001 {
		t.Errorf("gamma = %g, want clamped at 0.001", g.val[0])
	}
}

func TestGammaControllerZeroDeltaKeepsSign(t *testing.T) {
	g := controllerAt(0.05)
	g.observe(0.1, 1)
	g.observe(0, 1) // no movement: not a fluctuation, prev sign retained
	if math.Abs(g.val[0]-0.052) > 1e-12 {
		t.Errorf("gamma = %g, want 0.052", g.val[0])
	}
	// A negative delta now still counts as a flip against the stored +0.1.
	g.observe(-0.1, 1)
	if math.Abs(g.val[0]-0.026) > 1e-12 {
		t.Errorf("gamma = %g, want 0.026", g.val[0])
	}
}

func TestGammaControllerDeadband(t *testing.T) {
	g := controllerAt(0.05)
	g.observe(0.1, 1) // significant, stores +0.1
	// Hair-width jitter around a price of 1: |delta| = 0.001 < 1% of 1,
	// so sign flips do NOT halve gamma and do not overwrite the stored
	// direction.
	g.observe(-0.001, 1)
	g.observe(0.001, 1)
	if math.Abs(g.val[0]-0.053) > 1e-12 {
		t.Errorf("gamma = %g, want 0.053 (jitter ignored)", g.val[0])
	}
	// A significant flip still halves.
	g.observe(-0.1, 1)
	if math.Abs(g.val[0]-0.0265) > 1e-12 {
		t.Errorf("gamma = %g, want 0.0265", g.val[0])
	}
}

func TestGammaControllerSurge(t *testing.T) {
	g := controllerAt(0.004)
	// Price far from target (e.g. after a flow departure): the gap
	// dominates the price level and keeps one sign. The multiplicative
	// ramp engages only after surgeRuns consecutive same-signed
	// observations, so oscillation cannot re-trigger it.
	for i := 0; i < surgeRuns+1; i++ {
		g.observe(1.0, 0.1) // s ~ 0.91 > surge
	}
	// surgeRuns+1 observations: additive growth until the run is
	// established, then one doubling.
	want := 2 * (0.004 + float64(surgeRuns)*0.001)
	if math.Abs(g.val[0]-want) > 1e-12 {
		t.Errorf("gamma = %g, want %g after ramp engages", g.val[0], want)
	}
	g.observe(0.8, 0.3)
	if math.Abs(g.val[0]-2*want) > 1e-12 {
		t.Errorf("gamma = %g, want %g (ramp continues)", g.val[0], 2*want)
	}
	// A flip resets the run and halves.
	g.observe(-0.8, 0.3)
	if math.Abs(g.val[0]-want) > 1e-12 {
		t.Errorf("gamma = %g, want halved to %g", g.val[0], want)
	}
	g.observe(-0.8, 0.3) // same sign again, run = 1 < surgeRuns: additive
	if math.Abs(g.val[0]-(want+0.001)) > 1e-12 {
		t.Errorf("gamma = %g, want additive %g", g.val[0], want+0.001)
	}
}

func TestPriceGap(t *testing.T) {
	// Within capacity: gap pulls toward BC.
	if got := priceGap(0.5, 0.8, 100, 200); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("gap = %g, want 0.3", got)
	}
	if got := priceGap(0.8, 0.5, 200, 200); math.Abs(got+0.3) > 1e-12 {
		t.Errorf("gap = %g, want -0.3 (exact capacity uses BC branch)", got)
	}
	// Overload: gap is the excess.
	if got := priceGap(0.5, 9.9, 250, 200); got != 50 {
		t.Errorf("gap = %g, want 50", got)
	}
}

func TestConfigNormalized(t *testing.T) {
	c := mustDefaults(t, Config{})
	if c.Gamma != DefaultGamma {
		t.Errorf("gamma = %g", c.Gamma)
	}
	if c.LinkGamma != DefaultLinkGamma {
		t.Errorf("link gamma = %g", c.LinkGamma)
	}
	if g := newGammaBank(false, 1); g.val[0] != DefaultGammaMax || g.init != DefaultGammaMax || g.min != DefaultGammaMin || g.max != DefaultGammaMax ||
		g.step != DefaultGammaStep || g.deadband != DefaultGammaDeadband || g.surge != DefaultGammaSurge {
		t.Errorf("default controller = %+v", g)
	}
	if g := newGammaBank(true, 1); g.deadband != 0 || g.surge <= 1 {
		t.Errorf("literal controller = %+v, want no dead band and an unreachable surge", g)
	}
}

// TestNodePriceReachesZero: a slack, priced, class-free transit node decays
// by the factor 1 − γ a Step at the default γ = 0.1, fixed or adaptive, and
// reaches exactly 0 after ≈log(2^-1022/p)/log(1 − γ) Steps instead of
// sticking in the subnormal range. No price or γ is ever subnormal on the
// way, and the next re-arm parks the node.
func TestNodePriceReachesZero(t *testing.T) {
	subnormal := func(v float64) bool { return v != 0 && math.Abs(v) < minNormal }
	for _, adaptive := range []bool{false, true} {
		p := parkProblem([]float64{2, 3}, []float64{10, 10}, 20)
		e, err := NewEngine(p, Config{Adaptive: adaptive, workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50 && e.nodePrices[1] == 0; i++ {
			e.Step()
		}
		start := e.nodePrices[1]
		if start == 0 {
			t.Fatalf("adaptive %v: node 1 never got a price", adaptive)
		}
		p.Nodes[1].Capacity, p.Links[0].Capacity = 1e6, 1e6
		if err := e.Reset(p); err != nil {
			t.Fatal(err)
		}
		if nodes, _ := Armed(e); !isArmed(nodes, 1) {
			t.Fatalf("adaptive %v: slack node 1 at price %v was parked", adaptive, start)
		}
		// The default γ is the adaptive ceiling, and a node whose gap is a
		// constant share of its price surges to it, so both decay by 0.9.
		want := int(math.Ceil(math.Log(minNormal/start) / math.Log(1-DefaultGamma)))
		steps := 0
		for ; e.nodePrices[1] != 0; steps++ {
			if steps > want+10 {
				t.Fatalf("adaptive %v: node 1 still at %v after %d Steps, want 0 after ≈%d", adaptive, e.nodePrices[1], steps, want)
			}
			e.Step()
			for name, vs := range map[string][]float64{"node price": e.NodePrices(), "link price": e.LinkPrices(), "gamma": e.Gammas()} {
				for k, v := range vs {
					if subnormal(v) {
						t.Fatalf("adaptive %v, Step %d: %s %d is subnormal (%v)", adaptive, steps+1, name, k, v)
					}
				}
			}
		}
		t.Logf("adaptive %v: node 1 went from %v to 0 in %d Steps (estimate %d)", adaptive, start, steps, want)
		if steps < want-10 {
			t.Errorf("adaptive %v: node 1 reached 0 from %v after %d Steps, want ≈%d", adaptive, start, steps, want)
		}
		if err := e.Reset(p); err != nil {
			t.Fatal(err)
		}
		if nodes, _ := Armed(e); isArmed(nodes, 1) {
			t.Errorf("adaptive %v: node 1 reached price 0 and γ %v, and the re-arm did not park it", adaptive, e.gamma.val[1])
		}
		e.Close()
	}
}
