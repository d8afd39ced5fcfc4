package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestAsyncToleratesMessageLoss drops 10% of all messages: the paper's
// Section 3.5 asynchronous formulation (free-running agents with price
// averaging) must still reach the synchronous optimum, because agents use
// the latest values they have rather than blocking on a full round.
func TestAsyncToleratesMessageLoss(t *testing.T) {
	p := workload.Base()

	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(400).Utility

	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 42)

	cl, err := New(p, Config{
		Core: core.Config{Adaptive: true},
		Mode: Async,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	deadline := time.After(30 * time.Second)
	inBand := 0
	for {
		select {
		case <-deadline:
			t.Fatalf("did not converge under 10%% loss; last %.0f vs %.0f", cl.Sample().Utility, want)
		default:
		}
		s := cl.Sample()
		if math.Abs(s.Utility-want)/want < 0.03 {
			inBand++
		} else {
			inBand = 0
		}
		if inBand >= 10 {
			// Held within 3% of the lossless optimum.
			if dropped := net.NetStats().Dropped; dropped == 0 {
				t.Error("fault injection inactive: nothing was dropped")
			}
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// TestAsyncCollectorKeepsNoRounds: nobody reads an Async cluster's rounds
// (Run returns ErrMode), so its collector must hold none. It used to get the
// barrier schedule's in-order assembler, where the first lost frame pins
// nextComplete for good and every later tick's record stays in pending
// (919 of them after 1 s at 10% loss) — and without loss the finalized
// rounds piled up in stats instead.
func TestAsyncCollectorKeepsNoRounds(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 42)
	net.SetDropExempt(ctrlHost)
	cl, err := New(workload.Base(), Config{Core: core.Config{Adaptive: true}, Mode: Async}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const ticks = 300
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		cl.coll.mu.Lock()
		frontier, held := cl.coll.frontier, len(cl.coll.pending)+len(cl.coll.stats)
		cl.coll.mu.Unlock()
		if frontier >= ticks {
			// Anything kept per tick would be in the hundreds by now.
			if held > ticks/10 {
				t.Errorf("collector holds %d round records after %d ticks", held, frontier)
			}
			if net.NetStats().Dropped == 0 {
				t.Error("fault injection inactive: nothing was dropped")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("agents reached tick %d of %d", frontier, ticks)
		}
	}
}

// TestAsyncSurvivesTransientPartition cuts one node agent off from the
// rest mid-run and heals it; the system must re-stabilize.
func TestAsyncSurvivesTransientPartition(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{
		Core:    core.Config{Adaptive: true},
		Mode:    Async,
		ownHost: nodeName(1),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	waitStable := func(tag string, tol float64) float64 {
		det := metrics.NewConvergenceDetector(10, tol)
		deadline := time.After(20 * time.Second)
		for {
			select {
			case <-deadline:
				t.Fatalf("%s: did not stabilize; last %.0f", tag, cl.Sample().Utility)
			default:
			}
			s := cl.Sample()
			if det.Observe(s.Utility) && s.Utility > 0 {
				return s.Utility
			}
			time.Sleep(3 * time.Millisecond)
		}
	}

	before := waitStable("pre-partition", 0.05)

	// Cut node/1 off for a while. Its flows stop hearing its price; the
	// collector keeps the last reported populations.
	net.SetPartition(hostOf(cl, nodeName(1)), 9)
	time.Sleep(100 * time.Millisecond)
	net.ClearPartitions()

	after := waitStable("post-heal", 0.05)
	if rel := math.Abs(after-before) / before; rel > 0.05 {
		t.Errorf("post-heal utility %.0f deviates %.1f%% from pre-partition %.0f", after, rel*100, before)
	}
}

// TestStaleRepairsAsymmetricPartition cuts ONE direction of one
// node->flow edge mid-run: the flow stops hearing that node's reports
// while the node still hears the flow, so the usual symmetric-partition
// reasoning does not apply — repair depends entirely on the node's resend
// chirp getting through after the heal. The cluster must recover within
// the chirp-backoff budget (the interval is capped at 16x Resend, so the
// first post-heal chirp lands within ~32ms; the 1s bound is that plus
// round-processing slack, against a 30s deadlock horizon) and still
// converge to the engine's optimum.
func TestStaleRepairsAsymmetricPartition(t *testing.T) {
	p := workload.Base()
	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(400).Utility

	net := transport.NewMemory()
	defer net.Close()
	reg := telemetry.NewRegistry()
	tel := telemetry.NewDistMetrics(reg)
	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Staleness: 1,
		Resend:    2 * time.Millisecond,
		Telemetry: tel,
		ownHost:   flowName(0), // so that the block below cuts one edge, not a host's worth
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Run(30, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Block one real peer node's reports to flow/0 only; flow/0's
	// announces still reach the node. The whole (single-component)
	// cluster stalls behind flow/0 within K rounds.
	peer := model.NewIndex(p).NodesByFlow(0)[0]
	net.SetOneWay(hostOf(cl, nodeName(peer)), hostOf(cl, flowName(0)), true)
	done := make(chan error, 1)
	var stats []RoundStats
	go func() {
		s, err := cl.Run(120, 30*time.Second)
		stats = s
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("run finished during the one-way block: %v", err)
	default:
	}
	net.SetOneWay(hostOf(cl, nodeName(peer)), hostOf(cl, flowName(0)), false)
	healed := time.Now()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cluster did not recover after heal")
	}
	if rec := time.Since(healed); rec > time.Second {
		t.Errorf("recovery took %v, want within the 1s chirp-backoff budget", rec)
	}
	if len(stats) == 0 {
		t.Fatal("no rounds finalized")
	}
	// 2% band: the mid-run stall perturbs the adaptive trajectory, so the
	// 120-round tail sits slightly wider than a clean run's 1%.
	if rel := tailMeanDeviation(stats, want, 8); rel > 0.02 {
		t.Errorf("converged utility deviates %.2f%% from synchronous %.2f (%d rounds finalized)",
			rel*100, want, len(stats))
	}
	if net.NetStats().Dropped == 0 {
		t.Error("one-way block dropped nothing")
	}
	if tel.NodeChirps.Value() == 0 {
		t.Error("no node chirps recorded during the stall")
	}
	if tel.FlowRepairs.Value()+tel.NodeRepairs.Value() == 0 {
		t.Error("no chirp-credited repairs recorded")
	}
}

// TestMemoryMeterCountsClusterTraffic sanity-checks the two meters against
// a known round structure: every synchronous round moves at least one
// agent message per flow and per node, and the frames the gateways wrote
// are the frames the transport delivered.
func TestMemoryMeterCountsClusterTraffic(t *testing.T) {
	p := workload.Base()
	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{Core: core.Config{Adaptive: true}}, net)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 10
	if _, err := cl.Run(rounds, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil { // the gateways have stopped: the counters are final
		t.Fatal(err)
	}
	stats, tr := net.NetStats(), cl.Traffic()
	minPerRound := uint64(len(p.Flows) + len(p.Nodes))
	if tr.Messages < rounds*minPerRound {
		t.Errorf("%d agent messages over %d rounds, want >= %d", tr.Messages, rounds, rounds*minPerRound)
	}
	if stats.Delivered == 0 || stats.Delivered != tr.Frames {
		t.Errorf("transport delivered %d frames, gateways wrote %d", stats.Delivered, tr.Frames)
	}
	if stats.Bytes == 0 || tr.Bytes == 0 {
		t.Errorf("byte counters did not advance: %d on the wire, %d of payload", stats.Bytes, tr.Bytes)
	}
	if stats.Dropped != 0 || tr.Dropped != 0 {
		t.Errorf("dropped %d frames and %d messages without fault injection", stats.Dropped, tr.Dropped)
	}
}
