package dist

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// gateway puts the agents of one host onto the wire: it owns the host's
// single network endpoint and every agent on the host is a port on it. A
// send to a co-located agent is delivered directly (no wire traffic at
// all); a send to a remote agent is appended, already encoded, to the
// buffer staged for the destination's host, and the flusher writes one
// batch frame per destination host with whatever has been staged by the
// time it runs. Inbound batch frames are demultiplexed back to the ports.
//
// What wakes the flusher is what the host's agents are doing. A port is
// busy from the moment a message is queued for it until its agent is about
// to block on an empty inbox (hostPort.idle), and the flusher is woken
// when (a) the host's last busy port goes idle with something staged, (b)
// a port that is not busy sends — a chirp: nothing the host is working on
// will follow it — or (c) a port ends a round step while its previous one
// is still staged (hostPort.stepped), so co-located agents cannot trade
// rounds among themselves while the host holds back what their peers
// elsewhere wait for.
//
// Order: messages from one sender to one receiver are staged in one buffer
// in send order, flushes are serialized, and the transport and the
// receiving gateway's demux loop keep frame and message order — so every
// (sender, receiver) pair is FIFO, which is what Cluster.JoinFlow's
// happens-before (Expect acknowledged, then Join, then the next RunUntil)
// rests on.
type gateway struct {
	ep    transport.Endpoint
	route map[string]string // agent endpoint name -> host endpoint name
	names map[string]string // every name and kind an envelope can carry, for demux
	obs   *sink

	mu      sync.Mutex
	ports   map[string]*hostPort
	out     map[string]*staged // by destination host, created on first use
	dirty   []*staged          // those with bytes staged, in the order they got their first
	traffic Traffic
	closed  bool
	// busy counts the busy ports, and cuts the flushes: a port whose last
	// step was at the current cut has that step still staged.
	busy int
	cuts uint64
	// kick wakes the flusher (wakeLocked). Closed, under mu, by close. Nil
	// on the control host, whose senders flush inline.
	kick chan struct{}

	// flushMu serializes flushes; frames and slab are the flusher's scratch.
	flushMu sync.Mutex
	frames  []transport.Message
	slab    transport.Slab

	quit  chan struct{}
	loops sync.WaitGroup // the demux loop, and the flush loop where there is one
}

// staged is what a gateway holds for one destination host until the next
// flush: the concatenated transport.AppendMessage encodings of msgs
// messages.
type staged struct {
	host string
	buf  []byte
	msgs int
}

// newGateway starts a host's gateway. An inline gateway has no flusher of
// its own: a send through one of its ports flushes before it returns and
// reports what the transport said, which is what the control endpoint
// needs (Close, Run and JoinFlow surface control-plane failures).
func newGateway(ep transport.Endpoint, route, names map[string]string, inline bool, obs *sink) *gateway {
	g := &gateway{
		ep:    ep,
		route: route,
		names: names,
		obs:   obs,
		ports: make(map[string]*hostPort),
		out:   make(map[string]*staged),
		quit:  make(chan struct{}),
	}
	if !inline {
		g.kick = make(chan struct{}, 1)
		g.loops.Add(1)
		go g.flushLoop()
	}
	g.loops.Add(1)
	go g.demuxLoop()
	return g
}

// portSlack is the room a port keeps for control messages beside its
// peers' values: a RunUntil per window, a Leave, a Join, a Stop, and the
// Expect of a JoinFlow with the repeats it sends while unanswered.
const portSlack = 8

// port attaches a local agent that exchanges values with `peers` others
// and returns its endpoint. The inbox holds what the protocol can have in
// flight towards the agent, however long its goroutine is kept off the
// processor: an agent proceeds to round r on inputs down to round r-1-K
// (K = staleness) and a peer proceeds to r+K on what the agent sent for r,
// so a peer has at most 2K+1 values out that the agent has not read — one
// at the barrier — and the slot after them takes a resent duplicate. A
// message that finds the inbox full all the same is dropped and counted
// (Traffic.Dropped).
func (g *gateway) port(name string, staleness, peers int) *hostPort {
	return g.portDepth(name, (2*staleness+2)*peers+portSlack)
}

func (g *gateway) portDepth(name string, depth int) *hostPort {
	p := &hostPort{name: name, gw: g, in: make(chan transport.Message, depth)}
	g.mu.Lock()
	g.ports[name] = p
	g.mu.Unlock()
	return p
}

// stage routes one message from p: direct local delivery when the
// destination lives on this host, otherwise appended to what the next
// flush sends to the destination's host — at once if p is not busy.
func (p *hostPort) stage(msg transport.Message) error {
	g := p.gw
	msg.From = p.name
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return transport.ErrClosed
	}
	// A message counts as sent once it is routed.
	if q, ok := g.ports[msg.To]; ok {
		g.countLocked(&msg)
		return g.enqueueLocked(q, msg)
	}
	host, ok := g.route[msg.To]
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownDest, msg.To)
	}
	g.countLocked(&msg)
	st := g.out[host]
	if st == nil {
		st = &staged{host: host}
		g.out[host] = st
	}
	if st.msgs == 0 {
		g.dirty = append(g.dirty, st)
	}
	st.buf = transport.AppendMessage(st.buf, &msg)
	st.msgs++
	if !p.busy {
		g.wakeLocked()
	}
	return nil
}

// countLocked adds msg to the gateway's traffic. Callers hold g.mu.
func (g *gateway) countLocked(msg *transport.Message) {
	g.traffic.Messages++
	g.traffic.Bytes += uint64(len(msg.Payload))
}

// wakeLocked wakes the flusher. Callers hold g.mu, under which close
// closes the channel.
func (g *gateway) wakeLocked() {
	select {
	case g.kick <- struct{}{}:
	default: // a wake-up is already pending, or the sender flushes
	}
}

// flushLoop flushes whenever it is woken, and once more on the way out so
// that what the agents sent while shutting down (their Expect echoes) is
// not lost. Send failures are tolerated like agent sends: the protocol
// handles loss, and a closed transport surfaces via the demux loop.
func (g *gateway) flushLoop() {
	defer g.loops.Done()
	for range g.kick {
		_ = g.flush()
	}
	_ = g.flush()
}

// flush cuts one batch frame per destination host with staged traffic and
// sends them. It returns the first send failure, an injected drop
// (transport.ErrDropped) only if nothing worse happened.
func (g *gateway) flush() error {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	g.mu.Lock()
	g.cuts++
	total := 0
	for _, st := range g.dirty {
		// The frame is cut from a slab because the in-memory transport
		// hands the receiver this very slice, and st.buf is about to be
		// written again.
		g.frames = append(g.frames, transport.Message{To: st.host, Kind: batchKind, Payload: g.slab.Copy(st.buf)})
		g.obs.frame(st.msgs)
		total += st.msgs
		st.buf, st.msgs = st.buf[:0], 0
	}
	g.dirty = g.dirty[:0]
	g.traffic.Frames += uint64(len(g.frames))
	g.mu.Unlock()
	if total == 0 {
		return nil
	}
	var failed error
	for _, f := range g.frames {
		if err := g.ep.Send(f); err != nil && (failed == nil || errors.Is(failed, transport.ErrDropped)) {
			failed = fmt.Errorf("dist: frame to %s: %w", f.To, err)
		}
	}
	g.obs.flush(total, len(g.frames))
	clear(g.frames) // drop the payload references
	g.frames = g.frames[:0]
	return failed
}

// internTable lists every string an envelope of this cluster can carry —
// the agents' names and the message kinds — keyed by itself.
func internTable(route map[string]string) map[string]string {
	names := make(map[string]string, len(route)+3)
	for _, kind := range []string{ctrlKind, rateKind, reportKind} {
		names[kind] = kind
	}
	for name := range route {
		names[name] = name
	}
	return names
}

// intern returns the cluster's own string for an envelope field, and a new
// one only for a name the cluster does not know.
func (g *gateway) intern(b []byte) string {
	if s, ok := g.names[string(b)]; ok {
		return s
	}
	return string(b)
}

// demuxLoop unpacks inbound batch frames to the local agent ports. It
// exits when the underlying endpoint closes, closing every port so agents
// observe the shutdown.
func (g *gateway) demuxLoop() {
	defer g.loops.Done()
	for {
		select {
		case m, ok := <-g.ep.Recv():
			if !ok {
				g.closePorts()
				return
			}
			if m.Kind == batchKind {
				g.demux(m.Payload)
			}
		case <-g.quit:
			g.closePorts()
			return
		}
	}
}

// demux delivers a batch frame's messages, whose payloads alias the
// frame's, to their ports. A frame is input from outside the program:
// delivery stops at the first message that does not decode.
func (g *gateway) demux(frame []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(frame) > 0 {
		from, to, kind, payload, n, err := transport.SplitMessage(frame)
		if err != nil {
			return
		}
		frame = frame[n:]
		if p, ok := g.ports[string(to)]; ok {
			// A full inbox is counted in enqueueLocked; there is nobody to tell.
			_ = g.enqueueLocked(p, transport.Message{From: g.intern(from), To: p.name, Kind: g.intern(kind), Payload: payload})
		}
	}
}

// enqueueLocked delivers into a port's inbox. Callers hold g.mu, which also
// protects the closed flag, so a close cannot race the send.
func (g *gateway) enqueueLocked(p *hostPort, msg transport.Message) error {
	if p.closed {
		return transport.ErrClosed
	}
	select {
	case p.in <- msg:
		if !p.busy && !p.detached {
			p.busy = true
			g.busy++
		}
		return nil
	default:
		g.traffic.Dropped++
		return fmt.Errorf("dist: %q inbound buffer full", p.name)
	}
}

// trafficNow is the gateway's share of Cluster.Traffic.
func (g *gateway) trafficNow() Traffic {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.traffic
}

// close stops the gateway's loops once what is staged has been flushed,
// then closes its endpoint, which frees the host's name on the network.
func (g *gateway) close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	if g.kick != nil {
		close(g.kick) // under mu, like every send on it
	}
	g.mu.Unlock()
	close(g.quit)
	g.loops.Wait()
	_ = g.ep.Close()
}

// closePorts closes every local port channel. All port sends happen under
// g.mu (see enqueueLocked), so closing under the same lock cannot race a
// send.
func (g *gateway) closePorts() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.ports {
		if !p.closed {
			p.closed = true
			close(p.in)
		}
	}
}

// hostPort is one agent's endpoint on its host's gateway. It satisfies
// transport.Endpoint, so agent code knows nothing of hosts or frames; an
// agent's round loop tells its port only when it is about to block
// (idle), when it ends a round step (stepped) and when it returns
// (detach).
type hostPort struct {
	name string
	gw   *gateway
	in   chan transport.Message
	// Guarded by gw.mu: closed with the gateway; busy from a message queued
	// until the agent is about to block on an empty inbox; detached once
	// the agent's loop has returned, after which nothing makes it busy;
	// step is gw.cuts+1 as it was when the agent last ended a round step.
	closed   bool
	busy     bool
	detached bool
	step     uint64
}

var _ transport.Endpoint = (*hostPort)(nil)

// Name implements transport.Endpoint.
func (p *hostPort) Name() string { return p.name }

// Send implements transport.Endpoint.
func (p *hostPort) Send(msg transport.Message) error {
	err := p.stage(msg)
	if err == nil && p.gw.kick == nil {
		err = p.gw.flush()
	}
	return err
}

// Recv implements transport.Endpoint.
func (p *hostPort) Recv() <-chan transport.Message { return p.in }

// Close implements transport.Endpoint. Ports close collectively with
// their gateway; an individual close is a no-op.
func (p *hostPort) Close() error { return nil }

// idle is called by an agent about to block on its inbox. With the inbox
// empty the port stops being busy, and the host's last busy port going
// idle flushes what its agents have staged.
func (p *hostPort) idle() {
	if len(p.in) > 0 {
		return // input to read: the agent is not about to block
	}
	g := p.gw
	g.mu.Lock()
	if len(p.in) == 0 {
		g.releaseLocked(p)
	}
	g.mu.Unlock()
}

// detach is called by an agent whose loop has returned: nobody reads its
// inbox any more, so the port does not hold its host busy, now or later.
func (p *hostPort) detach() {
	g := p.gw
	g.mu.Lock()
	p.detached = true
	g.releaseLocked(p)
	g.mu.Unlock()
}

// releaseLocked takes p out of the busy count.
func (g *gateway) releaseLocked(p *hostPort) {
	if !p.busy {
		return
	}
	p.busy = false
	if g.busy--; g.busy == 0 && len(g.dirty) > 0 {
		g.wakeLocked()
	}
}

// stepped is called by an agent that has sent a round step. A second step
// while the first is still staged flushes both: a port that keeps stepping
// on what its co-located peers feed it would otherwise hold its host busy,
// and its values off the wire, for as many rounds as the staleness bound
// lets it run ahead.
func (p *hostPort) stepped() {
	g := p.gw
	g.mu.Lock()
	if p.step == g.cuts+1 && len(g.dirty) > 0 {
		g.wakeLocked()
	}
	p.step = g.cuts + 1
	g.mu.Unlock()
}
