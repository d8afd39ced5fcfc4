package dist

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// DefaultResend is the stall re-announce interval when Staleness > 0: an
// agent blocked this long re-sends its freshest value so a dropped frame
// cannot deadlock the cluster.
const DefaultResend = 10 * time.Millisecond

// Config tunes a Cluster.
type Config struct {
	// Core carries the LRGP algorithm parameters.
	Core core.Config
	// Multirate runs the multirate extension's algorithms at the agents
	// (per-class delivery rates); see internal/multirate.
	Multirate bool

	// Hosts is the number of hosts the node agents are spread over, in
	// contiguous blocks (default, and at most, one per node). Every agent
	// is a port on its host's gateway (see gateway.go): a flow agent rides
	// its source node's host, messages between co-located agents never
	// touch the wire, and what crosses it leaves as one frame per
	// destination host per flush. The collector and the control endpoint
	// share one more host.
	Hosts int

	// Staleness bounds how many rounds behind an agent's inputs may be.
	// 0 is the exact barrier schedule, latest price only; K > 0 is the
	// paper's asynchronous formulation (Section 3.5) on the same round
	// loop: agents proceed on values up to K rounds stale and average
	// the last few prices, which overlaps rounds and rides out message
	// loss.
	Staleness int

	// Telemetry, when non-nil, is the registry New registers the
	// lrgp_dist_* families on: round progress, staleness, chirp repairs,
	// gateway occupancy and stalls as they happen, and the transport's
	// traffic when scraped. All observations are atomic-only; without a
	// registry or a flight recorder an event costs one nil check.
	Telemetry *telemetry.Registry
	// StallTimeout arms the stall detector: if, while Run waits for rounds,
	// the collector absorbs nothing for this long, the cluster records a
	// stall and dumps a post-mortem. 0 disables. Arms the flight recorder.
	StallTimeout time.Duration
	// Postmortem receives one JSONL dump of every agent's ring the first
	// time the cluster stalls (detector trip, Run timeout, or Close
	// timeout). Arms the flight recorder, which WriteEvents also reads:
	// every agent keeps a fixed-size lock-free ring of its last
	// DefaultRecordSize events.
	Postmortem io.Writer

	// resend is the stall re-announce interval (DefaultResend when
	// Staleness > 0, so the default barrier arms no timer; < 0 disables).
	// Tests shorten it.
	resend time.Duration
	// record arms the flight recorder without a Postmortem or a
	// StallTimeout, and recordSize sizes its rings (DefaultRecordSize when
	// 0, rounded up to a power of two); only tests set them.
	record     bool
	recordSize int
	// stopGrace bounds how long Close waits for agents to acknowledge
	// their Stop (default 5s); tests under fault injection, where a Stop
	// frame can be lost, shorten it.
	stopGrace time.Duration
	// parkCollector, when non-nil, keeps the collector from reading its
	// inbox until the channel is closed (used by tests to let the agents
	// run as far ahead of it as Run allows).
	parkCollector chan struct{}
	// ownHost names one agent that gets a host to itself, so that a test
	// can cut exactly that agent off with the transport's fault injection.
	ownHost string
}

// normalized replaces every unset field by its default, with one host
// per node of a problem with nodes nodes; model.Option refuses a Hosts,
// Staleness or StallTimeout that is negative.
func (c Config) normalized(nodes int) (Config, error) {
	var errs [6]error
	c.Core, errs[0] = c.Core.WithDefaults()
	c.Hosts, errs[1] = model.Option("Config.Hosts", c.Hosts, nodes)
	c.Staleness, errs[2] = model.Option("Config.Staleness", c.Staleness, 0)
	c.StallTimeout, errs[3] = model.Option("Config.StallTimeout", c.StallTimeout, 0)
	c.stopGrace, errs[4] = model.Option("Config.stopGrace", c.stopGrace, 5*time.Second)
	c.recordSize, errs[5] = model.Option("Config.recordSize", c.recordSize, DefaultRecordSize)
	if err := errors.Join(errs[:]...); err != nil {
		return Config{}, fmt.Errorf("dist: %w", err)
	}
	if c.Staleness > 0 && c.resend == 0 {
		c.resend = DefaultResend
	}
	if c.Postmortem != nil || c.StallTimeout > 0 {
		c.record = true
	}
	return c, nil
}

// RoundStats is the collector's view of one completed round.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// Utility is the global objective value.
	Utility float64
}

// Cluster wires one agent per flow and per node over a transport network
// and aggregates global state at a collector endpoint.
type Cluster struct {
	p   *model.Problem
	cfg Config

	flows []*flowAgent
	nodes []*nodeAgent
	// agents names everyone a Stop goes to: the flow agents first (a
	// RunUntil goes to those alone), then the node agents and the collector.
	agents []string
	ctrl   *hostPort // for sending control messages
	coll   *collector
	hosts  map[string]*gateway // by host endpoint name
	route  map[string]string   // agent name -> host endpoint name

	// Observability: the shared monotonic epoch every recorder stamps
	// against (via the coarse shared clock), all rings (for snapshots),
	// the metrics every sink feeds (nil without Config.Telemetry), and the
	// cluster's own sink (detector events).
	epoch time.Time
	clk   *recClock
	recs  []*recorder
	m     *metrics
	obs   *sink

	pmMu     sync.Mutex
	pmDumped bool

	mu     sync.Mutex
	closed bool
	ran    int // highest round requested
}

// New validates the problem and attaches all agents to the network. The
// agents process no rounds until Run.
func New(p *model.Problem, cfg Config, net transport.Network) (*Cluster, error) {
	if err := model.Validate(p); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	c, err := cfg.normalized(len(p.Nodes))
	if err != nil {
		return nil, err
	}
	ix := model.NewIndex(p)

	cl := &Cluster{p: p, cfg: c, epoch: time.Now()}
	if c.record {
		cl.clk = newRecClock(cl.epoch)
	}
	if c.Telemetry != nil {
		cl.m = newMetrics(c.Telemetry)
	}
	ok := false
	defer func() {
		if ok {
			return
		}
		for _, gw := range cl.hosts {
			gw.close()
		}
		if cl.clk != nil {
			cl.clk.stop()
		}
	}()
	cl.obs = cl.newSink("cluster", 0)
	if err := cl.buildHosts(net); err != nil {
		return nil, err
	}

	// Only nodes that see at least one flow (directly or via an owned
	// link) ever compute and report; the collector must not wait for the
	// silent ones.
	reporting := 0
	owned := ownedLinks(p)
	for b := range p.Nodes {
		na := newNodeAgent(p, ix, model.NodeID(b), owned[b], c)
		if len(na.flows) > 0 {
			reporting++
		}
		cl.nodes = append(cl.nodes, na)
	}
	control := cl.hosts[ctrlHost]
	cl.coll = newCollector(p, control.portDepth(collectorName, collectorInbox), reporting, c.Staleness == 0, cl.newSink(collectorName, 0), cl.epoch)
	// The control endpoint's peers are whoever acknowledges a JoinFlow:
	// at most every node agent and the collector.
	cl.ctrl = control.port(ctrlName, c.Staleness, len(p.Nodes)+1)

	attach := func(name string, peers, kind int) (*hostPort, *sink) {
		cl.agents = append(cl.agents, name)
		return cl.hosts[cl.route[name]].port(name, c.Staleness, peers), cl.newSink(name, kind)
	}
	for i := range p.Flows {
		fa := newFlowAgent(p, ix, model.FlowID(i), c)
		fa.ep, fa.obs = attach(flowName(fa.flow), len(fa.peers.names), flowKind)
		cl.flows = append(cl.flows, fa)
	}
	for _, na := range cl.nodes {
		na.ep, na.obs = attach(nodeName(na.node), len(na.peers.names), nodeKind)
	}
	cl.agents = append(cl.agents, collectorName)

	// Launch all agents; flow agents idle until a RunUntil control arrives.
	// The collector sends nothing to chirp, so its loop arms no timer.
	go func(co *collector) {
		if c.parkCollector != nil {
			<-c.parkCollector
		}
		loop(co, co.ep, co.obs, 0, co.done)
	}(cl.coll)
	for _, fa := range cl.flows {
		go loop(fa, fa.ep, fa.obs, c.resend, fa.done)
	}
	for _, na := range cl.nodes {
		go loop(na, na.ep, na.obs, c.resend, na.done)
	}
	if c.Telemetry != nil {
		cl.registerNet(c.Telemetry, net)
	}
	ok = true
	return cl, nil
}

// newSink builds the named component's sink: a flight-recorder ring,
// registered for snapshots, when recording is enabled, and the cluster's
// metrics, with kind the agent label of the by-kind counters. Nil when
// neither is armed.
func (cl *Cluster) newSink(name string, kind int) *sink {
	var ring *recorder
	if cl.cfg.record {
		ring = newRecorder(name, cl.cfg.recordSize, cl.clk)
		cl.recs = append(cl.recs, ring)
	}
	if ring == nil && cl.m == nil {
		return nil
	}
	return &sink{ring: ring, m: cl.m, kind: kind}
}

// snapshot collects every ring's currently readable events.
func (cl *Cluster) snapshot() []Event {
	var buf []Event
	for _, r := range cl.recs {
		buf = r.events(buf)
	}
	return buf
}

// WriteEvents dumps every agent's flight-recorder ring as one merged JSONL
// event log (the lrgp-trace input format). Requires the flight recorder,
// which Config.Postmortem or Config.StallTimeout arms. Safe to call while
// the cluster is running; in-flight writes are skipped, not torn.
func (cl *Cluster) WriteEvents(w io.Writer) error {
	if !cl.cfg.record {
		return errors.New("dist: flight recording disabled (set Config.Postmortem or Config.StallTimeout)")
	}
	return writeEvents(w, cl.snapshot())
}

// postmortem records a stall and, once per cluster, dumps every ring to
// the configured Postmortem writer. Reached from Run's stall check, a Run
// timeout, and a Close timeout — whichever notices first wins.
func (cl *Cluster) postmortem() {
	cl.pmMu.Lock()
	defer cl.pmMu.Unlock()
	if cl.pmDumped {
		return
	}
	cl.pmDumped = true
	lastFinal, _ := cl.coll.mark()
	cl.obs.stall(lastFinal)
	if cl.cfg.Postmortem != nil {
		_ = writeEvents(cl.cfg.Postmortem, cl.snapshot())
	}
}

// ctrlHost is the host of the collector and the control endpoint.
const ctrlHost = "host/ctrl"

// collectorInbox is the depth of the collector's port: Run releases the
// agents in windows of as many rounds as it holds frames for.
const collectorInbox = 1024

// buildHosts places every agent on a host and starts one gateway per
// host. Nodes map to hosts in contiguous blocks; flow agents co-locate
// with their source node, so source-local exchanges never touch the wire.
func (cl *Cluster) buildHosts(net transport.Network) error {
	p := cl.p
	hosts := min(cl.cfg.Hosts, len(p.Nodes))
	cl.route = make(map[string]string, len(p.Flows)+len(p.Nodes)+2)
	for b := range p.Nodes {
		cl.route[nodeName(model.NodeID(b))] = hostName(b * hosts / len(p.Nodes))
	}
	for i := range p.Flows {
		cl.route[flowName(model.FlowID(i))] = cl.route[nodeName(p.Flows[i].Source)]
	}
	if own := cl.cfg.ownHost; own != "" {
		cl.route[own] = "host/" + own
	}
	cl.route[collectorName] = ctrlHost
	cl.route[ctrlName] = ctrlHost

	names := internTable(cl.route)
	cl.hosts = make(map[string]*gateway, hosts+1)
	for _, host := range cl.route {
		if cl.hosts[host] != nil {
			continue
		}
		ep, err := net.Endpoint(host)
		if err != nil {
			return fmt.Errorf("dist: host endpoint %s: %w", host, err)
		}
		cl.hosts[host] = newGateway(ep, cl.route, names, host == ctrlHost, cl.newSink(host, 0))
	}
	return nil
}

// Traffic counts what a cluster's agents have sent and what it cost on the
// wire.
type Traffic struct {
	// Messages counts agent messages — rate announcements, node reports,
	// controls — whether the receiver was co-located or not, and Bytes
	// their payload bytes: the paper's communication cost.
	Messages uint64
	Bytes    uint64
	// Frames counts the frames the gateways wrote to carry those that
	// crossed hosts.
	Frames uint64
	// Dropped counts messages discarded because the receiving agent's
	// inbox was full; the transport's NetStats counts what was lost on
	// the wire.
	Dropped uint64
}

// Traffic returns the sum of the gateways' counters.
func (cl *Cluster) Traffic() Traffic {
	var t Traffic
	for _, gw := range cl.hosts {
		g := gw.trafficNow()
		t.Messages += g.Messages
		t.Bytes += g.Bytes
		t.Frames += g.Frames
		t.Dropped += g.Dropped
	}
	return t
}

// sendCtrl delivers one control message to each named agent, as one flush
// of the control host: one frame per host they live on. Send errors surface
// to the caller.
func (cl *Cluster) sendCtrl(body ctrlMsg, to ...string) error {
	msg := transport.Message{From: ctrlName, Kind: ctrlKind, Payload: body.appendBinary(nil)}
	var failed error
	for _, msg.To = range to {
		if err := cl.ctrl.stage(msg); err != nil && failed == nil {
			failed = err
		}
	}
	// A message that could not even be staged is the worse news.
	if err := cl.ctrl.gw.flush(); failed == nil {
		failed = err
	}
	return failed
}

// Run advances the cluster by `rounds` rounds, at least 1, and returns the
// per-round global utilities observed by the collector. With Staleness > 0
// over a lossy transport, a round that lost a frame, or that a later round
// finalized ahead of, is absent from the result. Calls to Run are
// sequential: rounds are pending only while a Run waits for them.
//
// The collector is in no agent's barrier, so agents told to run far ahead
// leave it behind, and what they send it while it catches up has to fit
// its inbox: a frame that does not is dropped, and on the barrier schedule
// — where every round must finalize — the run then never completes. So
// there the agents are released a window at a time, each at most as many
// rounds as the inbox holds frames for (one per flow and reporting node
// per round), and the next once the collector has finalized the last.
// With Staleness > 0 a lost round is skipped by design and the chirps
// repair the final one, so there is nothing to protect.
//
// Run waits in one place: for the collector to finalize a window's last
// round or a later one, to stop, or for the timeout of the whole call. The
// stall detector looks there, every quarter StallTimeout, for the collector
// absorbing nothing while rounds are pending: a deadlock, not mere slowness.
func (cl *Cluster) Run(rounds int, timeout time.Duration) ([]RoundStats, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("dist: run %d rounds; want at least 1", rounds)
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	cl.mu.Lock()
	from := cl.ran + 1
	cl.ran += rounds
	until := cl.ran
	cl.mu.Unlock()

	co := cl.coll
	var stall <-chan time.Time
	every := max(cl.cfg.StallTimeout/4, time.Millisecond)
	if cl.cfg.StallTimeout > 0 {
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		stall = ticker.C
	}
	_, last := co.mark()
	frozen := time.Duration(0)

	window := rounds
	if co.inOrder {
		window = max(1, cap(co.ep.Recv())/(len(cl.flows)+co.nodesTotal))
	}
	for next := from - 1; next < until; {
		next = min(next+window, until)
		if err := cl.sendCtrl(ctrlMsg{RunUntil: next}, cl.agents[:len(cl.flows)]...); err != nil {
			return nil, fmt.Errorf("dist: run ctrl: %w", err)
		}
		for {
			lastFinal, absorbed := co.mark()
			if lastFinal >= next {
				break
			}
			select {
			case <-co.final:
			case <-co.done:
				cl.postmortem()
				return nil, fmt.Errorf("dist: collector stopped before round %d", next)
			case <-deadline.C:
				cl.postmortem()
				return nil, fmt.Errorf("dist: timeout waiting for round %d", next)
			case <-stall:
				if absorbed != last {
					last, frozen = absorbed, 0
				} else if frozen += every; frozen >= cl.cfg.StallTimeout {
					cl.postmortem()
					stall = nil
				}
			}
		}
	}
	return co.rounds(from, until), nil
}

// RemoveFlow announces a flow's departure (the Figure 3 experiment). The
// departure takes effect at the flow's next scheduled round; callers must
// invoke it between Run calls. A removed flow's agent idles
// and can rejoin via JoinFlow.
func (cl *Cluster) RemoveFlow(i model.FlowID) error {
	if i < 0 || int(i) >= len(cl.flows) {
		return fmt.Errorf("dist: remove: unknown flow %d", i)
	}
	return cl.sendCtrl(ctrlMsg{Leave: true}, flowName(i))
}

// JoinFlow re-activates a previously removed flow: its agent re-announces
// itself and the node agents resume expecting it. Like RemoveFlow, it
// must be invoked between Run calls (when no rounds are pending
// anywhere), and not concurrently with itself.
//
// The rejoin happens before the next round: JoinFlow returns only once
// every node agent the flow exchanges with, and the collector, have
// acknowledged that they count the flow active again. Telling the flow's
// agent alone is not enough — the others would learn of the rejoin from
// its first announcement, and until that arrives their barrier does not
// wait for it, so a whole Run could finish before the idle agent's
// goroutine was scheduled to read its Join. Notices and acknowledgements
// that a lossy transport drops are asked for again.
func (cl *Cluster) JoinFlow(i model.FlowID) error {
	if i < 0 || int(i) >= len(cl.flows) {
		return fmt.Errorf("dist: join: unknown flow %d", i)
	}
	silent := append([]string{collectorName}, cl.flows[i].peers.names...)
	notify := func() error {
		if err := cl.sendCtrl(ctrlMsg{Expect: true, Flow: i}, silent...); err != nil && !errors.Is(err, transport.ErrDropped) {
			return fmt.Errorf("dist: join ctrl: %w", err)
		}
		return nil
	}
	if err := notify(); err != nil {
		return err
	}
	deadline := time.NewTimer(joinTimeout)
	defer deadline.Stop()
	again := time.NewTicker(joinResend)
	defer again.Stop()
	for len(silent) > 0 {
		select {
		case m, ok := <-cl.ctrl.Recv():
			if !ok {
				return fmt.Errorf("dist: join: %w", transport.ErrClosed)
			}
			if cm, err := decodeCtrl(m.Payload); m.Kind == ctrlKind && err == nil && cm.Expect && cm.Flow == i {
				silent = slices.DeleteFunc(silent, func(name string) bool { return name == m.From })
			}
		case <-again.C:
			if err := notify(); err != nil {
				return err
			}
		case <-deadline.C:
			return fmt.Errorf("dist: join of flow %d: %d agents did not acknowledge within %v", i, len(silent), joinTimeout)
		}
	}
	return cl.sendCtrl(ctrlMsg{Join: true}, flowName(i))
}

// JoinFlow gives the agents joinTimeout to acknowledge, asking those still
// silent again every joinResend.
const (
	joinTimeout = 30 * time.Second
	joinResend  = 50 * time.Millisecond
)

// Allocation returns the collector's latest global allocation view.
func (cl *Cluster) Allocation() model.Allocation {
	return cl.coll.allocation()
}

// Close stops every agent. The underlying network is owned by the caller
// and is not closed. Control-send failures surface in the returned error
// (joined across agents), except fault-injected drops, which the lossy
// modes are designed to tolerate.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cl.mu.Unlock()

	var errs []error
	if err := cl.sendCtrl(ctrlMsg{Stop: true}, cl.agents...); err != nil && !errors.Is(err, transport.ErrDropped) {
		errs = append(errs, err)
	}

	// One shared grace period across all agents. A Stop can be lost under
	// fault injection, so an agent may legitimately never stop; once the
	// deadline fires (time.After delivers exactly once) stop waiting on
	// the rest instead of selecting on the drained channel forever.
	deadline := time.After(cl.cfg.stopGrace)
	timedOut := false
	wait := func(done <-chan struct{}, what string) {
		if timedOut {
			return
		}
		select {
		case <-done:
		case <-deadline:
			timedOut = true
			errs = append(errs, fmt.Errorf("dist: timeout stopping %s", what))
		}
	}
	// On a send failure the agents may never see their stop; give them the
	// grace period only when the control plane worked.
	if len(errs) == 0 {
		for _, fa := range cl.flows {
			wait(fa.done, "flow agents")
		}
		for _, na := range cl.nodes {
			wait(na.done, "node agents")
		}
		wait(cl.coll.done, "collector")
	}
	if timedOut {
		// An agent that never saw its Stop is the same failure shape as a
		// mid-run stall: dump the rings while they still show what
		// everyone was (not) doing.
		cl.postmortem()
	}
	for _, gw := range cl.hosts {
		gw.close()
	}
	if cl.clk != nil {
		cl.clk.stop()
	}
	return errors.Join(errs...)
}
