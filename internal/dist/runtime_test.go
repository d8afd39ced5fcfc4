package dist

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/workload"
)

// requireIdentical asserts two trajectories are bit-identical: same rounds,
// exactly equal utilities.
func requireIdentical(t *testing.T, tag string, got, want []RoundStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].Round != want[i].Round || got[i].Utility != want[i].Utility {
			t.Fatalf("%s: round %d: %v vs %v", tag, i+1, got[i], want[i])
		}
	}
}

// frozenTrajectory reads testdata/<name>.bits: one round's utility per
// line as the hex of its math.Float64bits, recorded from barrier runs of
// code that has since been deleted. base_50 and scaled102_40 (adaptive γ)
// come from commit 525a158 — the last one that could run the JSON wire,
// map-keyed reports and per-round map tallies — whose binary, batched and
// bounded-staleness K=0 runs produced the same bits; base_fixed_60 (fixed
// γ) from the separate synchronous agent loop at 67266ed, the last commit
// that had one; multirate_40 (Multirate, adaptive γ: the Deliveries section
// and the two multirate branches of the agents) from 188eb84, the commit
// before the gateway became the only attachment.
func frozenTrajectory(t *testing.T, name string) []RoundStats {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".bits"))
	if err != nil {
		t.Fatal(err)
	}
	var want []RoundStats
	for i, line := range strings.Fields(string(data)) {
		bits, err := strconv.ParseUint(line, 16, 64)
		if err != nil {
			t.Fatalf("%s line %d: %v", name, i+1, err)
		}
		want = append(want, RoundStats{Round: i + 1, Utility: math.Float64frombits(bits)})
	}
	return want
}

// awaitChirps blocks until the flight recorders show as many resend
// chirps as the cluster has reporting agents. With the resend timer armed,
// idle agents — between Run calls all of them are — each chirp within one
// resend interval.
func awaitChirps(t *testing.T, cl *Cluster) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		chirps := 0
		for _, e := range cl.snapshot() {
			if e.Type == EvResend {
				chirps++
			}
		}
		if chirps >= len(cl.flows)+cl.coll.nodesTotal {
			return
		}
	}
	t.Fatal("the agents did not chirp")
}

// TestTrajectoryMatchesFrozenOracle is the only proof of the barrier
// schedule: the one round loop at K=0 must emit, bit for bit, the
// trajectory recorded from the barrier loops it replaced — before reports
// became id-sorted slices and the agents' tallies arrays, so not one float
// sum may have been reordered. Neither the host count nor TCP (which change
// framing, not values) moves a bit of it, and neither do duplicates: with
// the resend timer armed at K=0 the agents chirp their last round
// mid-trajectory, and the absorb guards must make that harmless.
func TestTrajectoryMatchesFrozenOracle(t *testing.T) {
	adaptive := core.Config{Adaptive: true}
	for _, shape := range []struct {
		name  string
		p     *model.Problem
		cfg   Config
		hosts int
	}{
		{"base_50", workload.Base(), Config{Core: adaptive}, 4},
		{"scaled102_40", workload.Scaled(workload.Config{FlowCopies: 17, NodeSetCopies: 2}), Config{Core: adaptive}, 12},
		{"base_fixed_60", workload.Base(), Config{}, 4},
		{"multirate_40", workload.Base(), Config{Core: adaptive, Multirate: true}, 4},
	} {
		want := frozenTrajectory(t, shape.name)
		for _, run := range []struct {
			tag string
			cfg Config
			tcp bool
		}{
			{tag: "per-node hosts"},
			{tag: "fewer hosts", cfg: Config{Hosts: shape.hosts}},
			{tag: "over TCP", tcp: true},
			{tag: "Resend armed at K=0", cfg: Config{resend: DefaultResend, record: true}},
		} {
			var net transport.Network = transport.NewMemory()
			if run.tcp {
				net = transport.NewTCP()
			}
			run.cfg.Core, run.cfg.Multirate = shape.cfg.Core, shape.cfg.Multirate
			cl, err := New(shape.p, run.cfg, net)
			if err != nil {
				t.Fatal(err)
			}
			// With the resend timer armed the run pauses halfway: between
			// Run calls every agent is idle, so the chirps are certain.
			first := len(want)
			if run.cfg.resend > 0 {
				first /= 2
			}
			got, err := cl.Run(first, 2*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if first < len(want) {
				awaitChirps(t, cl)
				rest, err := cl.Run(len(want)-first, 2*time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rest...)
			}
			if err := cl.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			net.Close()
			requireIdentical(t, shape.name+" "+run.tag, got, want)
		}
	}
}

// TestSyncOverTCPMatchesEngine runs the rounds through the real TCP
// framing end to end and checks engine parity.
func TestSyncOverTCPMatchesEngine(t *testing.T) {
	p := workload.Base()
	e, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
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
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
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
			t.Fatalf("round %d: dist-tcp %g vs engine %g", i+1, s.Utility, engineTrace[i])
		}
	}
}

// tailMeanDeviation returns the relative deviation of the mean utility of
// the last (up to) n finalized rounds from want. Individual converged
// rounds flicker between near-equivalent discrete optima, so the
// converged level is judged on a tail mean.
func tailMeanDeviation(stats []RoundStats, want float64, n int) float64 {
	if len(stats) > n {
		stats = stats[len(stats)-n:]
	}
	mean := 0.0
	for _, s := range stats {
		mean += s.Utility
	}
	mean /= float64(len(stats))
	return math.Abs(mean-want) / want
}

// TestStalenessConvergesUnderLoss: with K>0, 10% message loss and delivery
// delay, the cluster must still converge to the synchronous optimum within
// 1% — the Section 3.5 claim, now on the round-structured (rather than
// free-running) runtime.
func TestStalenessConvergesUnderLoss(t *testing.T) {
	p := workload.Base()
	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(400).Utility

	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 7)
	net.SetDropExempt(ctrlHost)
	net.SetDelay(200 * time.Microsecond)

	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Staleness: 1,
		resend:    2 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.Run(300, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds completed")
	}
	if rel := tailMeanDeviation(stats, want, 8); rel > 0.01 {
		t.Errorf("converged utility deviates %.2f%% from synchronous %.2f (%d rounds finalized)",
			rel*100, want, len(stats))
	}
	if net.NetStats().Dropped == 0 {
		t.Error("fault injection inactive: nothing was dropped")
	}
}

// TestClusterThousandAgents proves the full data plane at scale: 1008
// agents (672 flows + 336 nodes) on 24 hosts with bounded staleness, under
// 10% loss of the frames between them. The converged utility must
// land within 1% of the in-process engine. Sized to stay in -short (it is
// part of the race CI job).
func TestClusterThousandAgents(t *testing.T) {
	p := workload.Scaled(workload.Config{FlowCopies: 112})
	if agents := len(p.Flows) + len(p.Nodes); agents < 1000 {
		t.Fatalf("workload too small: %d agents", agents)
	}
	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(300).Utility

	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 1)
	net.SetDropExempt(ctrlHost)

	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Hosts:     24,
		Staleness: 2,
		resend:    5 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.Run(120, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds completed")
	}
	if rel := tailMeanDeviation(stats, want, 5); rel > 0.01 {
		t.Errorf("converged utility deviates %.2f%% from engine %.2f (%d rounds finalized)",
			rel*100, want, len(stats))
	}
	if net.NetStats().Dropped == 0 {
		t.Error("fault injection inactive: nothing was dropped")
	}
}

// TestBatchFrameReduction: on a 102-flow/102-node cluster at 12 hosts the
// gateways must put at least 2.5 agent messages into a wire frame, counted
// on one run: co-located exchanges never reach the wire and what does
// shares a frame per destination host. The bound was set when the first
// staged byte woke the flusher (3.5 to 3.8 a frame then); woken when a
// host's agents go quiet, the flusher puts ≈24 in a frame (X5b,
// EXPERIMENTS.md).
func TestBatchFrameReduction(t *testing.T) {
	p := workload.Scaled(workload.Config{FlowCopies: 17, NodeSetCopies: 2})
	if len(p.Flows) != 102 || len(p.Nodes) != 102 {
		t.Fatalf("unexpected workload shape: %d flows, %d nodes", len(p.Flows), len(p.Nodes))
	}
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}, Hosts: 12}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(10, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	tr := cl.Traffic()
	if err := cl.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	// Once the gateways have stopped, every frame they wrote has arrived.
	if wrote, arrived := cl.Traffic().Frames, net.NetStats().Delivered; wrote == 0 || wrote != arrived {
		t.Fatalf("gateways wrote %d frames, the network delivered %d", wrote, arrived)
	}
	if ratio := float64(tr.Messages) / float64(tr.Frames); ratio < 2.5 {
		t.Errorf("%.2f agent messages per wire frame (%d in %d), want >= 2.5", ratio, tr.Messages, tr.Frames)
	}
}

// TestCloseSurfacesSendFailure: a failed control send during Close must
// surface in the returned error, not be silently discarded (the historical
// bug dropped every Encode/Send error on the floor).
func TestCloseSurfacesSendFailure(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(5, time.Minute); err != nil {
		t.Fatal(err)
	}
	net.Close() // control sends now fail with ErrClosed
	if err := cl.Close(); err == nil {
		t.Error("Close returned nil after the transport failed its control sends")
	}
}

// TestEveryLoopExitDetaches: however the round loop ends — a Stop, a closed
// inbox, or a send that finds the transport closed — it closes the agent's
// done and detaches its port, so that no gateway is left counting a busy
// port that nobody will read. The collector runs on the same loop and exits
// the first two ways; it never sends a round value, so no send of its own
// can find the transport closed, and the fatal-send case leaves it running.
func TestEveryLoopExitDetaches(t *testing.T) {
	for _, exit := range []string{"stop", "closed inbox", "fatal send"} {
		t.Run(exit, func(t *testing.T) {
			net := transport.NewMemory()
			defer net.Close()
			cl, err := New(workload.Base(), Config{Hosts: 2, resend: time.Millisecond}, net)
			if err != nil {
				t.Fatal(err)
			}
			if cl.coll.nodesTotal != len(cl.nodes) {
				t.Fatalf("%d of %d nodes report: a fatal send needs every agent to chirp", cl.coll.nodesTotal, len(cl.nodes))
			}
			if _, err := cl.Run(5, time.Minute); err != nil {
				t.Fatal(err)
			}
			agentHosts := func(closed bool) {
				for host, gw := range cl.hosts {
					if host != ctrlHost {
						gw.mu.Lock()
						gw.closed = closed
						gw.mu.Unlock()
					}
				}
			}
			switch exit {
			case "stop":
				if err := cl.Close(); err != nil {
					t.Fatal(err)
				}
			case "closed inbox":
				net.Close()
			case "fatal send":
				// The agent hosts refuse every send, as a closing gateway
				// does before it closes its ports: the next chirp of every
				// agent finds the transport closed.
				agentHosts(true)
			}
			timeout := time.After(10 * time.Second)
			exited := func(done chan struct{}, port *hostPort) {
				select {
				case <-done:
				case <-timeout:
					t.Fatalf("%s still running", port.name)
				}
				port.gw.mu.Lock()
				defer port.gw.mu.Unlock()
				if !port.detached {
					t.Errorf("%s returned without detaching its port", port.name)
				}
			}
			for _, fa := range cl.flows {
				exited(fa.done, fa.ep)
			}
			for _, na := range cl.nodes {
				exited(na.done, na.ep)
			}
			if exit != "fatal send" {
				exited(cl.coll.done, cl.coll.ep)
			}
			// The control host is left out: no round loop drives the
			// control endpoint's port, and the host has no flusher for a
			// busy port to hold back.
			for host, gw := range cl.hosts {
				gw.mu.Lock()
				if host != ctrlHost && gw.busy != 0 {
					t.Errorf("%s counts %d busy ports", host, gw.busy)
				}
				gw.mu.Unlock()
			}
			if exit == "fatal send" {
				agentHosts(false) // so that Close closes the gateways
			}
			if err := cl.Close(); err != nil && exit != "closed inbox" {
				t.Error(err)
			}
		})
	}
}

// TestRunRefusesFewerThanOneRound: a count below 1 is an error and moves
// nothing, so the next Run still returns every round it asked for,
// numbered on from the last one run.
func TestRunRefusesFewerThanOneRound(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(2, time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -3} {
		if stats, err := cl.Run(n, time.Minute); err == nil {
			t.Errorf("Run(%d) = %v, want an error", n, stats)
		}
	}
	stats, err := cl.Run(3, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 || stats[0].Round != 3 || stats[2].Round != 5 {
		t.Errorf("Run(3) after the refusals = %+v, want rounds 3..5", stats)
	}
}

// TestRunSurvivesParkedCollector: the collector is in no agent's barrier,
// so Run must not let the agents get further ahead of it than its inbox
// can absorb — past that, frames are dropped and a barrier round can never
// finalize (Run(500) in one call timed out in 1 of 30 trials at commit
// 525a158; nothing here depends on timing). The collector is parked until
// its inbox holds everything the agents may send before Run waits for it —
// as far ahead as they can get — and then 2000 rounds asked for in one
// call must all finalize, in order, with nothing dropped.
func TestRunSurvivesParkedCollector(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	park := make(chan struct{})
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}, parkCollector: park}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const rounds = 2000
	inbox := cl.coll.ep.Recv()
	senders := len(cl.flows) + cl.coll.nodesTotal
	window := cap(inbox) / senders
	if window >= rounds {
		t.Fatalf("a window of %d rounds covers the whole run; the test proves nothing", window)
	}
	go func() {
		// The window is full when every sender's frame of each of its
		// rounds has arrived; a run that overruns it fills the inbox.
		for len(inbox) < window*senders {
			runtime.Gosched()
		}
		close(park)
	}()
	stats, err := cl.Run(rounds, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != rounds {
		t.Fatalf("%d rounds finalized, want %d", len(stats), rounds)
	}
	for i, s := range stats {
		if s.Round != i+1 {
			t.Fatalf("stats[%d] is round %d: the run has a gap", i, s.Round)
		}
	}
	if onWire, atPorts := net.NetStats().Dropped, cl.Traffic().Dropped; onWire != 0 || atPorts != 0 {
		t.Errorf("%d frames dropped on the wire, %d messages at full ports", onWire, atPorts)
	}
	// Run has handed every finalized round to its caller, so the collector
	// keeps none of them.
	cl.coll.mu.Lock()
	held := len(cl.coll.stats)
	cl.coll.mu.Unlock()
	if held != 0 {
		t.Errorf("collector holds %d rounds' stats after Run returned them", held)
	}
}

// TestRoundAllocationBudget is the deterministic cost gate on the round's
// steady state: heap objects allocated per round over Run(100) on the base
// workload in memory. At commit 525a158 the binary wire allocated 143 per
// round (BenchmarkDistWire/binary); the gate is a third of that, and the
// test logs about 1.4.
func TestRoundAllocationBudget(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(100, time.Minute); err != nil { // warm-up: scratch grows to its working size
		t.Fatal(err)
	}
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cl.Run(rounds, time.Minute); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.1f allocations per round", perRound)
	if perRound > 143.0/3 {
		t.Errorf("%.1f allocations per round, want at most %.1f", perRound, 143.0/3)
	}
}
