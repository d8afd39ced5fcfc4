package dist

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/workload"
)

// hostOf is the network endpoint an agent's traffic goes through: what the
// transport's fault injection has to name to reach the agent.
func hostOf(cl *Cluster, agent string) string { return cl.route[agent] }

// TestNewRefusesBadStepsizes: a NaN, infinite or negative Gamma or
// LinkGamma is refused with model.ErrInvalid before any agent attaches to
// the network, so the same network then takes a valid cluster; 0 still
// means the default.
func TestNewRefusesBadStepsizes(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for name, cc := range map[string]core.Config{"Gamma": {Gamma: v}, "LinkGamma": {LinkGamma: v}} {
			if cl, err := New(p, Config{Core: cc}, net); !errors.Is(err, model.ErrInvalid) {
				t.Errorf("%s %g: New = %v, want model.ErrInvalid", name, v, err)
				if cl != nil {
					cl.Close()
				}
			}
		}
	}
	cl, err := New(p, Config{Core: core.Config{Gamma: 0, LinkGamma: 0}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.cfg.Core.Gamma != core.DefaultGamma || cl.cfg.Core.LinkGamma != core.DefaultLinkGamma {
		t.Errorf("zero stepsizes became %g and %g, want the defaults", cl.cfg.Core.Gamma, cl.cfg.Core.LinkGamma)
	}
}

// TestNewRefusesBadOptions: a negative Hosts, Staleness or StallTimeout is
// refused with model.ErrInvalid naming the field before any agent
// attaches, where it used to mean one host per node, the exact barrier
// and no stall detector; the same network then takes a valid cluster.
func TestNewRefusesBadOptions(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	for field, cfg := range map[string]Config{
		"Hosts":        {Hosts: -1},
		"Staleness":    {Staleness: -1},
		"StallTimeout": {StallTimeout: -time.Second},
	} {
		if cl, err := New(p, cfg, net); !errors.Is(err, model.ErrInvalid) || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: New = %v, want model.ErrInvalid naming it", field, err)
			if cl != nil {
				cl.Close()
			}
		}
	}
	cl, err := New(p, Config{}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.cfg.Hosts != len(p.Nodes) || cl.cfg.Staleness != 0 || cl.cfg.StallTimeout != 0 {
		t.Errorf("zero options became Hosts %d, Staleness %d, StallTimeout %v; want one host per node, 0 and 0",
			cl.cfg.Hosts, cl.cfg.Staleness, cl.cfg.StallTimeout)
	}
	if _, err := cl.Run(5, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCloseFreesHostNames: Close closes every gateway's endpoint with the
// gateway, so the same network takes a second cluster under the same host
// names once the first is closed.
func TestCloseFreesHostNames(t *testing.T) {
	checkCloseFreesHostNames(t, transport.NewMemory())
}

// TestCloseFreesHostNamesTCP is the same over one TCP network, whose
// endpoints give their names back when they close.
func TestCloseFreesHostNamesTCP(t *testing.T) {
	checkCloseFreesHostNames(t, transport.NewTCP())
}

func checkCloseFreesHostNames(t *testing.T, net transport.Network) {
	p := workload.Base()
	defer net.Close()
	for run := range 2 {
		cl, err := New(p, Config{Hosts: 4}, net)
		if err != nil {
			t.Fatalf("cluster %d: %v", run, err)
		}
		if _, err := cl.Run(3, 10*time.Second); err != nil {
			t.Fatalf("cluster %d: %v", run, err)
		}
		if err := cl.Close(); err != nil {
			t.Fatalf("cluster %d: %v", run, err)
		}
	}
}

// TestFailedNewFreesHostNames: a New that fails part-way through building
// its hosts (one host name is already taken on the network) closes the
// endpoints it did open, so every other host name is free again. The hosts
// are opened in map order, so the attempt repeats until earlier hosts have
// been opened before the taken one.
func TestFailedNewFreesHostNames(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	const hosts = 4
	taken := hostName(2)
	if _, err := net.Endpoint(taken); err != nil {
		t.Fatal(err)
	}
	for attempt := range 10 {
		if cl, err := New(p, Config{Hosts: hosts}, net); !errors.Is(err, transport.ErrDuplicate) {
			if cl != nil {
				cl.Close()
			}
			t.Fatalf("attempt %d: New = %v, want transport.ErrDuplicate for %s", attempt, err, taken)
		}
		for _, name := range []string{hostName(0), hostName(1), hostName(3), ctrlHost} {
			ep, err := net.Endpoint(name)
			if err != nil {
				t.Fatalf("attempt %d: %s still registered after the failed New: %v", attempt, name, err)
			}
			ep.Close()
		}
	}
}

func TestItoa(t *testing.T) {
	tests := []struct {
		give int
		want string
	}{
		{0, "0"}, {7, "7"}, {42, "42"}, {1234, "1234"}, {-3, "-3"},
	}
	for _, tt := range tests {
		if got := itoa(tt.give); got != tt.want {
			t.Errorf("itoa(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestPriceWindow(t *testing.T) {
	pw := newPriceWindow(3)
	if pw.avg() != 0 {
		t.Errorf("empty avg = %g", pw.avg())
	}
	pw.push(3)
	if pw.avg() != 3 {
		t.Errorf("avg = %g, want 3", pw.avg())
	}
	pw.push(6)
	pw.push(9)
	if pw.avg() != 6 {
		t.Errorf("avg = %g, want 6", pw.avg())
	}
	pw.push(12) // evicts 3
	if pw.avg() != 9 {
		t.Errorf("avg = %g, want 9", pw.avg())
	}
	if w := newPriceWindow(0); len(w.vals) != 1 {
		t.Errorf("window 0 normalized to %d, want 1", len(w.vals))
	}
}

// TestSyncMatchesEngine is the distributed runtime's keystone test: the
// lock-step cluster must produce exactly the same utility trajectory as
// the in-process Engine, because every agent executes the same exported
// primitives in the same data-dependency order.
func TestSyncMatchesEngine(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		p := workload.Base()
		coreCfg := core.Config{Adaptive: adaptive}

		e, err := core.NewEngine(p.Clone(), coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 60
		var engineTrace []float64
		for i := 0; i < rounds; i++ {
			engineTrace = append(engineTrace, e.Step().Utility)
		}

		net := transport.NewMemory()
		cl, err := New(p, Config{Core: coreCfg}, net)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := cl.Run(rounds, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		net.Close()

		if len(stats) != rounds {
			t.Fatalf("adaptive=%v: got %d rounds, want %d", adaptive, len(stats), rounds)
		}
		for i, s := range stats {
			if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
				t.Fatalf("adaptive=%v round %d: dist %g vs engine %g", adaptive, i+1, s.Utility, engineTrace[i])
			}
		}
	}
}

// TestSyncMatchesEnginePastSubnormalHorizon runs the distributed rounds
// long enough for a slack node's price to decay, by 1 − γ a round, below
// the smallest normal float64 and be projected to exactly 0 (≈6,700 rounds
// at γ = 0.1; on Tiny one node's price takes that path). The node agents
// reach the projection through core.NodePricer, so at the end every
// node price and rate must equal the engine's bit for bit. Utility is
// summed in another order by the collector and is held to 1e-9, as in
// TestSyncMatchesEngine.
func TestSyncMatchesEnginePastSubnormalHorizon(t *testing.T) {
	const rounds = 7000
	for _, adaptive := range []bool{false, true} {
		p := workload.Tiny()
		coreCfg := core.Config{Adaptive: adaptive}

		e, err := core.NewEngine(p.Clone(), coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		engineTrace := make([]float64, rounds)
		everPriced := make([]bool, len(p.Nodes))
		for i := range engineTrace {
			engineTrace[i] = e.Step().Utility
			for b, v := range e.NodePrices() {
				everPriced[b] = everPriced[b] || v != 0
			}
		}
		wantPrices, wantAlloc := e.NodePrices(), e.Allocation()
		e.Close()
		decayed := 0
		for b, v := range wantPrices {
			if everPriced[b] && v == 0 {
				decayed++
			}
		}
		if decayed == 0 {
			t.Fatalf("adaptive=%v: no node price decayed to 0 in %d rounds: %v", adaptive, rounds, wantPrices)
		}

		net := transport.NewMemory()
		cl, err := New(p, Config{Core: coreCfg}, net)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := cl.Run(rounds, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		gotAlloc := cl.Allocation()
		if err := cl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		net.Close()

		if len(stats) != rounds {
			t.Fatalf("adaptive=%v: got %d rounds, want %d", adaptive, len(stats), rounds)
		}
		for i, s := range stats {
			if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
				t.Fatalf("adaptive=%v round %d: dist %v vs engine %v", adaptive, i+1, s.Utility, engineTrace[i])
			}
		}
		for b, na := range cl.nodes {
			if got := na.pricer.Price(); math.Float64bits(got) != math.Float64bits(wantPrices[b]) {
				t.Errorf("adaptive=%v node %d: dist price %v vs engine %v", adaptive, b, got, wantPrices[b])
			}
		}
		for i, r := range gotAlloc.Rates {
			if math.Float64bits(r) != math.Float64bits(wantAlloc.Rates[i]) {
				t.Errorf("adaptive=%v flow %d: dist rate %v vs engine %v", adaptive, i, r, wantAlloc.Rates[i])
			}
		}
	}
}

// TestSyncMatchesEngineRandomWorkloads extends the keystone parity test
// across randomized problem shapes: whatever the topology of flows,
// classes and nodes, the distributed rounds must replay the engine.
func TestSyncMatchesEngineRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		p := workload.Random(rng, workload.RandomConfig{
			Flows: 2 + rng.Intn(5), Nodes: 2 + rng.Intn(4), ClassesPerFlow: 1 + rng.Intn(4),
		})
		coreCfg := core.Config{Adaptive: trial%2 == 0}

		e, err := core.NewEngine(p.Clone(), coreCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const rounds = 30
		var engineTrace []float64
		for i := 0; i < rounds; i++ {
			engineTrace = append(engineTrace, e.Step().Utility)
		}

		net := transport.NewMemory()
		cl, err := New(p, Config{Core: coreCfg}, net)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		stats, err := cl.Run(rounds, time.Minute)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_ = cl.Close()
		net.Close()

		for i, s := range stats {
			if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
				t.Fatalf("trial %d round %d: dist %g vs engine %g", trial, i+1, s.Utility, engineTrace[i])
			}
		}
	}
}

func TestSyncOverTCP(t *testing.T) {
	p := workload.Base()
	coreCfg := core.Config{Adaptive: true}

	e, err := core.NewEngine(p.Clone(), coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	var engineTrace []float64
	for i := 0; i < rounds; i++ {
		engineTrace = append(engineTrace, e.Step().Utility)
	}

	net := transport.NewTCP()
	defer net.Close()
	cl, err := New(p, Config{Core: coreCfg}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.Run(rounds, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != rounds {
		t.Fatalf("got %d rounds, want %d", len(stats), rounds)
	}
	for i, s := range stats {
		if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
			t.Fatalf("round %d: dist-tcp %g vs engine %g", i+1, s.Utility, engineTrace[i])
		}
	}
}

func TestSyncIncrementalRuns(t *testing.T) {
	// Two Run calls must continue the same trajectory as one long run.
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	first, err := cl.Run(20, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Run(20, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if first[len(first)-1].Round != 20 || second[0].Round != 21 || second[len(second)-1].Round != 40 {
		t.Errorf("round numbering: %d..%d then %d..%d",
			first[0].Round, first[len(first)-1].Round, second[0].Round, second[len(second)-1].Round)
	}
}

func TestSyncWithLinks(t *testing.T) {
	p := workload.WithLinkBottlenecks(workload.Base(), 0.5)
	coreCfg := core.Config{Adaptive: true}

	e, err := core.NewEngine(p.Clone(), coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var engineTrace []float64
	for i := 0; i < rounds; i++ {
		engineTrace = append(engineTrace, e.Step().Utility)
	}

	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: coreCfg}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stats, err := cl.Run(rounds, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stats {
		if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
			t.Fatalf("round %d: dist %g vs engine %g (link pricing diverged)", i+1, s.Utility, engineTrace[i])
		}
	}
}

func TestRemoveFlow(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	before, err := cl.Run(100, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	uBefore := before[len(before)-1].Utility

	if err := cl.RemoveFlow(5); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Run(100, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	uAfter := after[len(after)-1].Utility
	if uAfter >= uBefore {
		t.Errorf("utility after removing flow 5 = %g, want below %g", uAfter, uBefore)
	}
	a := cl.Allocation()
	if a.Rates[5] != 0 || a.Consumers[18] != 0 || a.Consumers[19] != 0 {
		t.Errorf("flow 5 leftovers: rate=%g n18=%d n19=%d", a.Rates[5], a.Consumers[18], a.Consumers[19])
	}
}

func TestRemoveAndRejoinFlow(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	before, err := cl.Run(120, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	uBefore := before[len(before)-1].Utility

	if err := cl.RemoveFlow(5); err != nil {
		t.Fatal(err)
	}
	during, err := cl.Run(120, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	uDuring := during[len(during)-1].Utility
	if uDuring >= uBefore {
		t.Fatalf("utility %g did not drop during departure (was %g)", uDuring, uBefore)
	}

	if err := cl.JoinFlow(5); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Run(200, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	uAfter := after[len(after)-1].Utility
	if rel := math.Abs(uAfter-uBefore) / uBefore; rel > 0.02 {
		t.Errorf("utility after rejoin %g deviates %.2f%% from original %g", uAfter, rel*100, uBefore)
	}
	a := cl.Allocation()
	if a.Rates[5] <= 0 || a.Consumers[18] == 0 || a.Consumers[19] == 0 {
		t.Errorf("flow 5 not restored: rate=%g n18=%d n19=%d", a.Rates[5], a.Consumers[18], a.Consumers[19])
	}
}

// TestRejoinHappensBeforeNextRound: JoinFlow returns only once the flow's
// peers and the collector expect it, so the very next round — a Run of one —
// already carries it, on every transport and host count. (A fire-and-forget
// Join let that round, and as many after it as the scheduler pleased, finish
// without the flow.)
func TestRejoinHappensBeforeNextRound(t *testing.T) {
	for _, c := range []struct {
		name string
		net  func() transport.Network
		cfg  Config
	}{
		{"memory", func() transport.Network { return transport.NewMemory() }, Config{}},
		{"memory/hosts=2", func() transport.Network { return transport.NewMemory() }, Config{Hosts: 2}},
		{"tcp", func() transport.Network { return transport.NewTCP() }, Config{}},
		{"tcp/hosts=2", func() transport.Network { return transport.NewTCP() }, Config{Hosts: 2}},
		{"memory/staleness=2", func() transport.Network { return transport.NewMemory() }, Config{Staleness: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := c.net()
			defer net.Close()
			c.cfg.Core = core.Config{Adaptive: true}
			cl, err := New(workload.Base(), c.cfg, net)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for k := 0; k < 5; k++ {
				if _, err := cl.Run(20, time.Minute); err != nil {
					t.Fatal(err)
				}
				if err := cl.RemoveFlow(5); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Run(20, time.Minute); err != nil {
					t.Fatal(err)
				}
				if a := cl.Allocation(); a.Rates[5] != 0 || a.Consumers[18] != 0 {
					t.Fatalf("cycle %d: removed flow 5 still allocated: rate=%g n18=%d", k, a.Rates[5], a.Consumers[18])
				}
				if err := cl.JoinFlow(5); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Run(1, time.Minute); err != nil {
					t.Fatal(err)
				}
				if a := cl.Allocation(); a.Rates[5] <= 0 {
					t.Fatalf("cycle %d: flow 5 missed the round after its rejoin: rate=%g", k, a.Rates[5])
				}
			}
		})
	}
}

// TestJoinFlowRepairsLostAcknowledgement: an acknowledgement the transport
// drops is asked for again, so JoinFlow still returns once the path heals.
func TestJoinFlowRepairsLostAcknowledgement(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(10, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveFlow(5); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(10, time.Minute); err != nil {
		t.Fatal(err)
	}
	deaf := cl.flows[5].peerNames[0]
	net.SetOneWay(hostOf(cl, deaf), ctrlHost, true)
	dropped := net.NetStats().Dropped
	joined := make(chan error, 1)
	go func() { joined <- cl.JoinFlow(5) }()
	for net.NetStats().Dropped == dropped { // until the first acknowledgement is lost
		select {
		case err := <-joined:
			t.Fatalf("JoinFlow returned (%v) without %s's acknowledgement", err, deaf)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	net.SetOneWay(hostOf(cl, deaf), ctrlHost, false)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(1, time.Minute); err != nil {
		t.Fatal(err)
	}
	if a := cl.Allocation(); a.Rates[5] <= 0 {
		t.Fatalf("flow 5 missed the round after its rejoin: rate=%g", a.Rates[5])
	}
}

func TestJoinActiveFlowIsNoop(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	first, err := cl.Run(10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.JoinFlow(0); err != nil { // already active
		t.Fatal(err)
	}
	second, err := cl.Run(10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 10 || len(second) != 10 {
		t.Errorf("round counts %d/%d", len(first), len(second))
	}
}

func TestNewValidates(t *testing.T) {
	p := workload.Base()
	p.Classes[0].Utility = nil
	net := transport.NewMemory()
	defer net.Close()
	if _, err := New(p, Config{}, net); err == nil {
		t.Error("New accepted invalid problem")
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{}, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestAllocationFeasibleAfterRun(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(60, time.Minute); err != nil {
		t.Fatal(err)
	}
	a := cl.Allocation()
	ix := model.NewIndex(p)
	if err := model.CheckFeasible(p, ix, a, 1e-6); err != nil {
		t.Errorf("allocation infeasible: %v", err)
	}
}
