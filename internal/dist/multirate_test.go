package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/multirate"
	"repro/internal/transport"
	"repro/internal/workload"
)

// heteroProblem is the multirate showcase workload.
func heteroProblem() *model.Problem {
	return workload.Heterogeneous()
}

// TestMultirateSyncMatchesEngine: the distributed multirate cluster must
// produce the multirate engine's utility trajectory round for round, on
// both the heterogeneous showcase and the paper's base workload.
func TestMultirateSyncMatchesEngine(t *testing.T) {
	for _, p := range []*model.Problem{heteroProblem(), workload.Base()} {
		coreCfg := core.Config{Adaptive: true}

		e, err := multirate.NewEngine(p.Clone(), coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 50
		var engineTrace []float64
		for i := 0; i < rounds; i++ {
			engineTrace = append(engineTrace, e.Step())
		}

		net := transport.NewMemory()
		cl, err := New(p, Config{Core: coreCfg, Multirate: true}, net)
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
			t.Fatalf("%s: got %d rounds, want %d", p.Name, len(stats), rounds)
		}
		for i, s := range stats {
			if rel := math.Abs(s.Utility-engineTrace[i]) / math.Max(1, engineTrace[i]); rel > 1e-9 {
				t.Fatalf("%s round %d: dist %g vs engine %g", p.Name, i+1, s.Utility, engineTrace[i])
			}
		}
	}
}

// TestMultirateAsyncConverges runs the multirate agents in the free-
// running asynchronous mode and requires the sampled utility to hold the
// multirate engine's band — the two extensions (async §3.5 + multirate §5)
// compose.
func TestMultirateAsyncConverges(t *testing.T) {
	p := heteroProblem()

	ref, err := multirate.NewEngine(p.Clone(), core.Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Solve(600).Utility

	net := transport.NewMemory()
	defer net.Close()
	cl, err := New(p, Config{
		Core:      core.Config{Adaptive: true},
		Mode:      Async,
		Multirate: true,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	deadline := time.After(20 * time.Second)
	inBand := 0
	for {
		select {
		case <-deadline:
			t.Fatalf("async multirate did not reach %g; last %g", want, cl.Sample().Utility)
		default:
		}
		s := cl.Sample()
		if math.Abs(s.Utility-want)/want < 0.02 {
			inBand++
			if inBand >= 10 {
				return
			}
		} else {
			inBand = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMultirateSyncBeatsSingleRate sanity-checks that the distributed
// multirate mode realizes the multirate gain end to end.
func TestMultirateSyncBeatsSingleRate(t *testing.T) {
	p := heteroProblem()

	run := func(multirateMode bool) float64 {
		net := transport.NewMemory()
		defer net.Close()
		cl, err := New(p.Clone(), Config{
			Core:      core.Config{Adaptive: true},
			Multirate: multirateMode,
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		stats, err := cl.Run(120, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1].Utility
	}

	single := run(false)
	multi := run(true)
	if multi <= single*1.20 {
		t.Errorf("distributed multirate %.0f not >20%% above single-rate %.0f", multi, single)
	}
}
