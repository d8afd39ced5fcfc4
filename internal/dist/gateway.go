package dist

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// gateway multiplexes the agents of one host onto a single network
// endpoint. A send to a co-located agent is delivered directly (no wire
// traffic at all); a send to a remote agent is appended, already encoded,
// to the buffer staged for the destination's host, and the first byte
// staged wakes the flusher, which writes one batch frame per destination
// host with whatever has been staged by the time it runs. Inbound batch
// frames are demultiplexed back to the per-agent ports.
//
// Order: messages from one sender to one receiver are staged in one buffer
// in send order, flushes are serialized, and the transport and the
// receiving gateway's demux loop keep frame and message order — so every
// (sender, receiver) pair is FIFO.
type gateway struct {
	ep    transport.Endpoint
	route map[string]string // agent endpoint name -> host endpoint name
	names map[string]string // every name and kind an envelope can carry, for demux
	tel   *telemetry.DistMetrics
	rec   *recorder

	mu     sync.Mutex
	ports  map[string]*hostPort
	out    map[string]*staged // by destination host, created on first use
	dirty  []*staged          // those with bytes staged, in the order they got their first
	closed bool
	// kick wakes the flusher; a token is put when dirty gets its first
	// entry. Closed, under mu, by close.
	kick chan struct{}

	// flushMu serializes flushes; frames and slab are the flusher's scratch.
	flushMu sync.Mutex
	frames  []transport.Message
	slab    transport.Slab

	quit     chan struct{}
	loopDone chan struct{} // flush + demux loops
}

// staged is what a gateway holds for one destination host until the next
// flush: the concatenated transport.AppendMessage encodings of msgs
// messages.
type staged struct {
	host string
	buf  []byte
	msgs int
}

func newGateway(ep transport.Endpoint, route, names map[string]string, tel *telemetry.DistMetrics, rec *recorder) *gateway {
	g := &gateway{
		ep:       ep,
		route:    route,
		names:    names,
		tel:      tel,
		rec:      rec,
		ports:    make(map[string]*hostPort),
		out:      make(map[string]*staged),
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}, 2),
	}
	go g.flushLoop()
	go g.demuxLoop()
	return g
}

// port attaches a local agent to the gateway and returns its endpoint.
func (g *gateway) port(name string) *hostPort {
	p := &hostPort{
		name: name,
		gw:   g,
		in:   make(chan transport.Message, memoryBuffer),
	}
	g.mu.Lock()
	g.ports[name] = p
	g.mu.Unlock()
	return p
}

// memoryBuffer mirrors the in-memory transport's per-endpoint queue depth.
const memoryBuffer = 1024

// send routes one agent message: direct local delivery when the
// destination lives on this host, otherwise staged for the next flush.
func (g *gateway) send(msg transport.Message) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return transport.ErrClosed
	}
	if p, ok := g.ports[msg.To]; ok {
		return p.enqueueLocked(msg)
	}
	host, ok := g.route[msg.To]
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownDest, msg.To)
	}
	st := g.out[host]
	if st == nil {
		st = &staged{host: host}
		g.out[host] = st
	}
	if st.msgs == 0 {
		if g.dirty = append(g.dirty, st); len(g.dirty) == 1 {
			select {
			case g.kick <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}
	st.buf = transport.AppendMessage(st.buf, &msg)
	st.msgs++
	return nil
}

// flushLoop flushes whenever something has been staged, and once more on
// the way out so that what the agents sent while shutting down (their
// Expect echoes) is not lost.
func (g *gateway) flushLoop() {
	defer func() { g.loopDone <- struct{}{} }()
	for range g.kick {
		g.flush()
	}
	g.flush()
}

// flush cuts one batch frame per destination host with staged traffic and
// sends them. Send failures are tolerated like agent sends: the protocol
// handles loss, and a closed transport surfaces via the demux loop.
func (g *gateway) flush() {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	g.mu.Lock()
	total := 0
	for _, st := range g.dirty {
		// The frame is cut from a slab because the in-memory transport
		// hands the receiver this very slice, and st.buf is about to be
		// written again.
		g.frames = append(g.frames, transport.Message{To: st.host, Kind: batchKind, Payload: g.slab.Copy(st.buf)})
		g.tel.ObserveFlushFrame(st.msgs)
		total += st.msgs
		st.buf, st.msgs = st.buf[:0], 0
	}
	g.dirty = g.dirty[:0]
	g.mu.Unlock()
	if total == 0 {
		return
	}
	for _, f := range g.frames {
		_ = g.ep.Send(f)
	}
	g.tel.ObserveFlush(total)
	g.rec.record(EvFlush, 0, int64(total), int64(len(g.frames)))
	clear(g.frames) // drop the payload references
	g.frames = g.frames[:0]
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
	defer func() { g.loopDone <- struct{}{} }()
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
// frame's, to their ports, up to the first that does not decode.
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
			_ = p.enqueueLocked(transport.Message{From: g.intern(from), To: p.name, Kind: g.intern(kind), Payload: payload}) // full-buffer drops mirror transport semantics
		}
	}
}

// close stops the gateway's loops once what is staged has been flushed.
// The underlying endpoint belongs to the network owner and is left open.
func (g *gateway) close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.kick) // under mu, like every send on it
	g.mu.Unlock()
	close(g.quit)
	<-g.loopDone
	<-g.loopDone
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

// hostPort is one agent's endpoint on a gateway host. It satisfies
// transport.Endpoint so agent code is oblivious to batching.
type hostPort struct {
	name   string
	gw     *gateway
	in     chan transport.Message
	closed bool // guarded by gw.mu
}

var _ transport.Endpoint = (*hostPort)(nil)

// Name implements transport.Endpoint.
func (p *hostPort) Name() string { return p.name }

// Send implements transport.Endpoint.
func (p *hostPort) Send(msg transport.Message) error {
	msg.From = p.name
	return p.gw.send(msg)
}

// Recv implements transport.Endpoint.
func (p *hostPort) Recv() <-chan transport.Message { return p.in }

// Close implements transport.Endpoint. Ports close collectively with
// their gateway; an individual close is a no-op.
func (p *hostPort) Close() error { return nil }

// enqueueLocked delivers into the port buffer. Callers hold gw.mu, which
// also protects the closed flag, so a close cannot race the send.
func (p *hostPort) enqueueLocked(msg transport.Message) error {
	if p.closed {
		return transport.ErrClosed
	}
	select {
	case p.in <- msg:
		return nil
	default:
		return fmt.Errorf("dist: %q inbound buffer full", p.name)
	}
}

// encodeBatch packs whole messages into one payload: the concatenation
// of their transport.AppendMessage frames (first byte 'B').
func encodeBatch(msgs []transport.Message) []byte {
	size := 0
	for i := range msgs {
		size += transport.BinarySize(&msgs[i])
	}
	payload := make([]byte, 0, size)
	for i := range msgs {
		payload = transport.AppendMessage(payload, &msgs[i])
	}
	return payload
}

// decodeBatch appends a batch payload's messages to dst. Their payloads
// alias the batch's, which like any received payload is read-only. The
// plain message array JSON senders wrote (first byte '[') still decodes.
func decodeBatch(dec *transport.Decoder, dst []transport.Message, payload []byte) ([]transport.Message, error) {
	if len(payload) > 0 && payload[0] == '[' {
		var msgs []transport.Message
		if err := json.Unmarshal(payload, &msgs); err != nil {
			return nil, fmt.Errorf("dist: decode batch: %w", err)
		}
		return append(dst, msgs...), nil
	}
	for off := 0; off < len(payload); {
		m, n, err := dec.Decode(payload[off:])
		if err != nil {
			return nil, err
		}
		dst = append(dst, m)
		off += n
	}
	return dst, nil
}
