package dist

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Agent kinds, the agent label of the by-kind counters.
const (
	flowKind = iota
	nodeKind
)

// metrics are the lrgp_dist_* families New registers on
// Config.Telemetry. The counters, gauges and histograms below are fed by
// the sinks as events happen; the net gauges read the transport and the
// gateways when scraped (registerNet).
type metrics struct {
	roundsFinalized *telemetry.Counter
	// stalenessLag is the frontier round (freshest round seen in any
	// message) minus the slowest active agent's round, and finalizeLag the
	// frontier minus the finalized round, both at the latest finalize.
	stalenessLag *telemetry.Gauge
	finalizeLag  *telemetry.Gauge
	assembly     *telemetry.Histogram
	// chirps, backoffs and repairs are by agent kind.
	chirps, backoffs, repairs [2]*telemetry.Counter
	flushes                   *telemetry.Counter
	queueDepth                *telemetry.Gauge
	occupancy                 *telemetry.Histogram
	stalls                    *telemetry.Counter
}

// newMetrics registers the event-fed lrgp_dist_* families on reg, the
// assembly times with the µs-scale layout and flush frames with the
// occupancy layout. Registering twice on one registry returns the same
// instruments, so clusters sharing a registry add to one set of counters.
func newMetrics(reg *telemetry.Registry) *metrics {
	byKind := func(name, help string) (c [2]*telemetry.Counter) {
		for k, v := range [2]string{"flow", "node"} {
			c[k] = reg.Counter(name, help, telemetry.Label{Key: "agent", Value: v})
		}
		return c
	}
	return &metrics{
		roundsFinalized: reg.Counter("lrgp_dist_rounds_finalized_total",
			"Rounds fully assembled and finalized by the collector."),
		stalenessLag: reg.Gauge("lrgp_dist_staleness_lag",
			"Frontier round minus the slowest active agent's round at the last finalize."),
		finalizeLag: reg.Gauge("lrgp_dist_collector_finalize_lag",
			"Frontier round minus the most recently finalized round."),
		assembly: reg.Histogram("lrgp_dist_round_assembly_seconds",
			"Time from a round's first absorbed input to its finalize.", telemetry.MicroDurationBuckets()),
		chirps:   byKind("lrgp_dist_resend_chirps_total", "Stall re-announces by agent kind."),
		backoffs: byKind("lrgp_dist_resend_backoffs_total", "Chirp-interval escalations by agent kind."),
		repairs:  byKind("lrgp_dist_repairs_total", "Stalls that resumed after at least one chirp, by agent kind."),
		flushes: reg.Counter("lrgp_dist_gateway_flushes_total",
			"Gateway flush epochs that carried staged traffic."),
		queueDepth: reg.Gauge("lrgp_dist_gateway_queue_depth",
			"Staged messages at the most recent gateway flush."),
		occupancy: reg.Histogram("lrgp_dist_gateway_flush_occupancy",
			"Messages per flushed gateway batch frame.", telemetry.OccupancyBuckets()),
		stalls: reg.Counter("lrgp_dist_stalls_total",
			"Stall-detector trips (no collector progress within the deadline)."),
	}
}

// registerNet registers the net gauges on reg: what the transport
// delivered and what was lost, on the wire or at an agent's full inbox,
// read when scraped. New calls it once the cluster's gateways exist, since
// a scrape reads them. A registry keeps the first cluster registered on it.
func (cl *Cluster) registerNet(reg *telemetry.Registry, net transport.Network) {
	reg.GaugeFunc("lrgp_dist_net_frames", "Transport frames delivered.",
		func() float64 { return float64(net.NetStats().Delivered) })
	reg.GaugeFunc("lrgp_dist_net_bytes", "Bytes the delivered transport frames carried.",
		func() float64 { return float64(net.NetStats().Bytes) })
	reg.GaugeFunc("lrgp_dist_net_dropped", "Messages lost to fault injection, partitions or a full inbox.",
		func() float64 { return float64(net.NetStats().Dropped + cl.Traffic().Dropped) })
}

// sink is where one agent, gateway, the collector or the cluster observes
// its events. Each method is one event, written to the component's
// flight-recorder ring and counted in the metrics, whichever of the two
// is armed (Cluster.newSink). A nil sink, neither armed, observes nothing,
// so the disabled path is one branch per event. No method locks or
// allocates.
type sink struct {
	ring *recorder
	m    *metrics
	kind int // an agent's flowKind or nodeKind
	// chirped is set by a chirp and cleared by the next progress, which it
	// credits as a repair. Only the owning agent's goroutine touches it.
	chirped bool
}

// record writes an event that only the ring keeps: an agent's receive or
// absorb.
func (s *sink) record(ev EventType, round int, a int64) {
	if s != nil {
		s.ring.record(ev, round, a, 0)
	}
}

// progress is one round an agent completed: the send of its value to
// fanout peers on inputs lag rounds stale, and the round advance. Progress
// right after a chirp credits it as a repair: the re-announce plausibly
// replaced a lost frame.
func (s *sink) progress(round, lag, fanout int) {
	if s == nil {
		return
	}
	s.ring.record(EvSend, round, int64(lag), int64(fanout))
	s.ring.record(EvRound, round, 0, 0)
	if s.chirped {
		s.chirped = false
		if s.m != nil {
			s.m.repairs[s.kind].Inc()
		}
	}
}

// resend is one stall chirp re-announcing round after wait without
// progress.
func (s *sink) resend(round int, wait time.Duration) {
	if s == nil {
		return
	}
	s.ring.record(EvResend, round, int64(wait), 0)
	s.chirped = true
	if s.m != nil {
		s.m.chirps[s.kind].Inc()
	}
}

// backoff is one chirp-interval escalation.
func (s *sink) backoff() {
	if s != nil && s.m != nil {
		s.m.backoffs[s.kind].Inc()
	}
}

// frame is one batch frame of msgs messages a gateway flush cut.
func (s *sink) frame(msgs int) {
	if s != nil && s.m != nil {
		s.m.occupancy.Observe(float64(msgs))
	}
}

// flush is one gateway flush epoch that sent staged messages in frames
// batch frames.
func (s *sink) flush(staged, frames int) {
	if s == nil {
		return
	}
	s.ring.record(EvFlush, 0, int64(staged), int64(frames))
	if s.m != nil {
		s.m.flushes.Inc()
		s.m.queueDepth.Set(float64(staged))
	}
}

// finalize is one round the collector finalized, with the cluster's
// staleness and finalize lags then and the round's assembly time.
func (s *sink) finalize(round, stalenessLag, finalizeLag int, assemblyNanos int64) {
	if s == nil {
		return
	}
	s.ring.record(EvRound, round, int64(stalenessLag), assemblyNanos)
	if s.m != nil {
		s.m.roundsFinalized.Inc()
		s.m.stalenessLag.Set(float64(stalenessLag))
		s.m.finalizeLag.Set(float64(finalizeLag))
		s.m.assembly.ObserveSeconds(assemblyNanos)
	}
}

// stall is one stall-detector trip, with round the highest finalized.
func (s *sink) stall(round int) {
	if s == nil {
		return
	}
	s.ring.record(EvStall, round, 0, 0)
	if s.m != nil {
		s.m.stalls.Inc()
	}
}
