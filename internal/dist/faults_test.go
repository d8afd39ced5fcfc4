package dist

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestStaleCollectorForgetsLostRounds: at K>0 over a lossy transport the
// collector finalizes rounds out of order and skips those that lost a
// frame, so it must not keep a record per lost round. It used to: a round
// that lost a frame stayed pending for good, and every finalized round
// stayed in a set of completed ones (147–162 records held after this
// test's 300 rounds).
func TestStaleCollectorForgetsLostRounds(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	net.SetDropRate(0.10, 42)
	net.SetDropExempt(ctrlHost)
	cl, err := New(workload.Base(), Config{
		Core:      core.Config{Adaptive: true},
		Staleness: 1,
		resend:    2 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const rounds = 300
	if _, err := cl.Run(rounds, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	cl.coll.mu.Lock()
	held := len(cl.coll.pending) + len(cl.coll.stats)
	cl.coll.mu.Unlock()
	// Anything kept per round would be in the hundreds by now.
	if held > rounds/10 {
		t.Errorf("collector holds %d round records after %d rounds", held, rounds)
	}
	if net.NetStats().Dropped == 0 {
		t.Error("fault injection inactive: nothing was dropped")
	}
}

// TestStaleRepairsAsymmetricPartition cuts part of the cluster off mid-run
// and heals it, at K=1. In the one-way case ONE direction of one
// node->flow edge goes: the flow stops hearing that node's reports while
// the node still hears the flow, so the usual symmetric-partition
// reasoning does not apply — repair depends entirely on the node's resend
// chirp getting through after the heal. In the host case one node agent's
// host is cut off both ways. The cluster must recover within the
// chirp-backoff budget (the interval is capped at 16x resend, so the first
// post-heal chirp lands within ~32ms; the 1s bound is that plus
// round-processing slack, against a 30s deadlock horizon) and still
// converge to the engine's optimum.
func TestStaleRepairsAsymmetricPartition(t *testing.T) {
	p := workload.Base()
	ref, err := core.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(400).Utility
	peer := model.NewIndex(p).NodesByFlow(0)[0]

	for _, tc := range []struct {
		name string
		// own gets a host to itself, so that the cut takes exactly it.
		own       string
		cut, heal func(net *transport.Memory, cl *Cluster)
	}{{
		// Block one real peer node's reports to flow/0 only; flow/0's
		// announces still reach the node.
		name: "one-way edge",
		own:  flowName(0),
		cut: func(net *transport.Memory, cl *Cluster) {
			net.SetOneWay(hostOf(cl, nodeName(peer)), hostOf(cl, flowName(0)), true)
		},
		heal: func(net *transport.Memory, cl *Cluster) {
			net.SetOneWay(hostOf(cl, nodeName(peer)), hostOf(cl, flowName(0)), false)
		},
	}, {
		// Node/1's flows stop hearing its price and it stops hearing them.
		name: "host both ways",
		own:  nodeName(1),
		cut: func(net *transport.Memory, cl *Cluster) {
			net.SetPartition(hostOf(cl, nodeName(1)), 9)
		},
		heal: func(net *transport.Memory, _ *Cluster) { net.ClearPartitions() },
	}} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemory()
			defer net.Close()
			cl, err := New(p, Config{
				Core:      core.Config{Adaptive: true},
				Staleness: 1,
				resend:    2 * time.Millisecond,
				Telemetry: telemetry.NewRegistry(),
				ownHost:   tc.own,
			}, net)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			if _, err := cl.Run(30, time.Minute); err != nil {
				t.Fatal(err)
			}

			// The whole (single-component) cluster stalls behind the cut
			// within K rounds.
			tc.cut(net, cl)
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
				t.Fatalf("run finished during the cut: %v", err)
			default:
			}
			tc.heal(net, cl)
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
			// 2% band: the mid-run stall perturbs the adaptive trajectory,
			// so the 120-round tail sits slightly wider than a clean run's
			// 1%.
			if rel := tailMeanDeviation(stats, want, 8); rel > 0.02 {
				t.Errorf("converged utility deviates %.2f%% from synchronous %.2f (%d rounds finalized)",
					rel*100, want, len(stats))
			}
			if net.NetStats().Dropped == 0 {
				t.Error("the cut dropped nothing")
			}
			if cl.m.chirps[nodeKind].Value() == 0 {
				t.Error("no node chirps recorded during the stall")
			}
			if cl.m.repairs[flowKind].Value()+cl.m.repairs[nodeKind].Value() == 0 {
				t.Error("no chirp-credited repairs recorded")
			}
		})
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
