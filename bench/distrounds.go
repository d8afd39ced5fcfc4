package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/workload"
)

// dist_rounds: the distributed runtime and the transport do the work, the
// broker and the overlay none. Set-up brings a cold cluster of 72 agents
// plus collector over loopback TCP to the paper's 0.1% rule; the measured
// phase runs lock-step rounds on it, one caller waiting for each chunk
// (closed loop).

const (
	// distChunk is how many rounds one Cluster.Run call asks for. A probe
	// found Run(500) in one call over transport.NewMemory() timing out in
	// 85 of 200 trials, and chunks of up to 100 rounds over TCP never in
	// 40; small chunks keep the failure share at zero and bound what one
	// timed-out call costs.
	distChunk = 10
	// distChunkTimeout is some hundred times a chunk's usual length.
	distChunkTimeout = 10 * time.Second
	// distConvergeBudget bounds set-up's rounds; 56 are needed.
	distConvergeBudget = 2000
	rttPings           = 200
	utilityTolerance   = 1e-3
)

type distSys struct {
	p   *model.Problem
	net *transport.TCP
	cl  *dist.Cluster
	// rttUs is the median echo time between two bare endpoints on net,
	// measured once, before the first traced phase.
	rttUs   series
	chunkID int64
}

func setupDist(_ int64, st setupTimes) (system, error) {
	// The problem is the paper's own scaled workload and has no random
	// part, so the seed changes nothing here.
	p := workload.Scaled(workload.Config{FlowCopies: 8})
	if _, err := st.validateIndex(p); err != nil {
		return nil, err
	}
	s := &distSys{p: p, net: transport.NewTCP()}
	t0 := time.Now()
	var err error
	if s.cl, err = dist.New(p, dist.Config{Core: engineConfig}, s.net); err != nil {
		_ = s.net.Close() // the construction error is the one to report
		return nil, err
	}
	det := metrics.NewConvergenceDetector(0, 0)
	rounds := 0
	for !det.Converged() {
		if rounds >= distConvergeBudget {
			s.close()
			return nil, fmt.Errorf("cluster did not converge in %d rounds", distConvergeBudget)
		}
		stats, err := s.cl.Run(distChunk, distChunkTimeout)
		if err != nil {
			s.close()
			return nil, err
		}
		for _, rs := range stats {
			det.Observe(rs.Utility)
		}
		rounds += len(stats)
	}
	st["converge_s"] = append(st["converge_s"], time.Since(t0).Seconds())
	st["dist.rounds_to_converge"] = append(st["dist.rounds_to_converge"], float64(det.ConvergedAt()))
	return s, nil
}

func (s *distSys) close() {
	// Both report what was lost on the way down; the run's numbers are
	// already taken.
	_ = s.cl.Close()
	_ = s.net.Close()
}

// measureRTT times rttPings echoes between two bare endpoints on the
// cluster's own network: the floor under anything a round can cost.
func (s *distSys) measureRTT() error {
	ping, err := s.net.Endpoint("bench/ping")
	if err != nil {
		return err
	}
	defer ping.Close()
	pong, err := s.net.Endpoint("bench/pong")
	if err != nil {
		return err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for m := range pong.Recv() {
			if pong.Send(transport.Message{From: "bench/pong", To: "bench/ping", Kind: "echo", Payload: m.Payload}) != nil {
				return
			}
		}
	}()
	defer func() {
		_ = pong.Close() // ends the echo goroutine's range
		<-echoDone
	}()
	msg := transport.Message{From: "bench/ping", To: "bench/pong", Kind: "echo", Payload: []byte(`1`)}
	for k := 0; k < rttPings; k++ {
		t0 := time.Now()
		if err := ping.Send(msg); err != nil {
			return err
		}
		select {
		case <-ping.Recv():
		case <-time.After(distChunkTimeout):
			return fmt.Errorf("echo %d timed out", k)
		}
		s.rttUs = append(s.rttUs, float64(time.Since(t0))/1e3)
	}
	return nil
}

func (s *distSys) measure(d time.Duration, tr *tracer) (*phase, error) {
	if tr != nil && s.rttUs == nil {
		if err := s.measureRTT(); err != nil {
			return nil, fmt.Errorf("transport echo: %w", err)
		}
	}
	ph := newPhase()
	net0 := s.net.NetStats()
	pm := startProc()
	var roundMs series
	for start := time.Now(); time.Since(start) < d; {
		s.chunkID++
		t0 := time.Now()
		sp := tr.begin("dist.run_chunk", s.chunkID, -1)
		stats, err := s.cl.Run(distChunk, distChunkTimeout)
		tr.end(sp)
		el := time.Since(t0)
		ph.attempted += distChunk
		if err != nil || len(stats) != distChunk {
			// A timed-out chunk leaves the cluster mid-round; its rounds
			// count as failed and the phase ends here.
			ph.failed += distChunk
			break
		}
		roundMs = append(roundMs, float64(el)/1e6/distChunk)
		ph.rates = append(ph.rates, distChunk/el.Seconds())
	}
	ph.proc = pm.stop()
	net1 := s.net.NetStats()
	rounds := float64(len(roundMs) * distChunk)
	if rounds == 0 {
		return nil, fmt.Errorf("no chunk of %d rounds completed within %v", distChunk, distChunkTimeout)
	}
	ph.latency = roundMs
	ph.m["rounds_per_s"] = rounds / ph.proc.wall.Seconds()
	ph.timing("round_ms_p99", roundMs, 0.99)
	ph.m["dist.round_us_p50"], ph.n["dist.round_us_p50"] = 1e3*roundMs.median(), len(roundMs)
	ph.m["dist.allocs_per_round"] = float64(ph.proc.mallocs) / rounds
	ph.m["dist.alloc_kb_per_round"] = float64(ph.proc.allocated) / 1e3 / rounds
	ph.m["transport.frames_per_round"] = float64(net1.Delivered-net0.Delivered) / rounds
	ph.m["transport.bytes_per_round"] = float64(net1.Bytes-net0.Bytes) / rounds
	if tr != nil {
		ph.timing("transport.rtt_us_p50", s.rttUs, 0.5)
		ph.m["dist.floor_ratio"] = ph.m["dist.round_us_p50"] / (2 * ph.m["transport.rtt_us_p50"])
	}
	return ph, nil
}

// verify checks the cluster's allocation against a colocated engine on
// the same problem: both run the same algorithm to the same fixpoint.
func (s *distSys) verify() (float64, error) {
	cold, err := coldUtility(s.p)
	if err != nil {
		return 0, err
	}
	ratio := model.TotalUtility(s.p, s.cl.Allocation()) / cold
	if math.Abs(ratio-1) > utilityTolerance {
		return 0, fmt.Errorf("cluster utility is %.6f of the colocated engine's, want within %g", ratio, utilityTolerance)
	}
	return ratio, nil
}
