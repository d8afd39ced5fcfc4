package dist

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// flushInterval is the gateway epoch length: staged cross-host messages
// are packed into one frame per destination host and flushed at this
// cadence.
const flushInterval = 200 * time.Microsecond

// gateway multiplexes the agents of one simulated host onto a single
// network endpoint. Agent sends to co-located agents are delivered
// directly (no wire traffic at all); sends to remote agents and the
// collector are staged per destination endpoint and flushed as one batch
// frame per epoch, so a round costs one frame per host pair instead of
// one per agent pair. Inbound batch frames are demultiplexed back to the
// per-agent ports.
type gateway struct {
	ep    transport.Endpoint
	route map[string]string // agent endpoint name -> host endpoint name
	tel   *telemetry.DistMetrics
	rec   *recorder

	mu       sync.Mutex
	ports    map[string]*hostPort
	outbox   map[string][]transport.Message
	closed   bool
	quit     chan struct{}
	loopDone chan struct{} // flush + demux loops
}

func newGateway(ep transport.Endpoint, route map[string]string, tel *telemetry.DistMetrics, rec *recorder) *gateway {
	g := &gateway{
		ep:       ep,
		route:    route,
		tel:      tel,
		rec:      rec,
		ports:    make(map[string]*hostPort),
		outbox:   make(map[string][]transport.Message),
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
	dst, ok := g.route[msg.To]
	if !ok {
		return fmt.Errorf("%w: %q", transport.ErrUnknownDest, msg.To)
	}
	g.outbox[dst] = append(g.outbox[dst], msg)
	return nil
}

func (g *gateway) flushLoop() {
	defer func() { g.loopDone <- struct{}{} }()
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			g.flush()
		case <-g.quit:
			g.flush() // drain staged traffic so shutdown ctrl replies are not lost
			return
		}
	}
}

// flush encodes one batch frame per destination with staged traffic and
// sends it. Send failures are tolerated like agent sends: the protocol
// handles loss, and a closed transport surfaces via the demux loop.
func (g *gateway) flush() {
	g.mu.Lock()
	if len(g.outbox) == 0 {
		g.mu.Unlock()
		return
	}
	staged := g.outbox
	g.outbox = make(map[string][]transport.Message)
	from := g.ep.Name()
	g.mu.Unlock()

	total := 0
	for dst, msgs := range staged {
		total += len(msgs)
		g.tel.ObserveFlushFrame(len(msgs))
		_ = g.ep.Send(transport.Message{From: from, To: dst, Kind: batchKind, Payload: encodeBatch(msgs)})
	}
	g.tel.ObserveFlush(total)
	g.rec.record(EvFlush, 0, int64(total), int64(len(staged)))
}

// demuxLoop unpacks inbound batch frames to the local agent ports. It
// exits when the underlying endpoint closes, closing every port so agents
// observe the shutdown.
func (g *gateway) demuxLoop() {
	defer func() { g.loopDone <- struct{}{} }()
	var (
		dec   transport.Decoder
		inner []transport.Message // reused: the ports get copies
	)
	for {
		select {
		case m, ok := <-g.ep.Recv():
			if !ok {
				g.closePorts()
				return
			}
			if m.Kind != batchKind {
				continue
			}
			var err error
			if inner, err = decodeBatch(&dec, inner[:0], m.Payload); err != nil {
				continue
			}
			g.mu.Lock()
			for _, im := range inner {
				if p, ok := g.ports[im.To]; ok {
					_ = p.enqueueLocked(im) // full-buffer drops mirror transport semantics
				}
			}
			g.mu.Unlock()
		case <-g.quit:
			g.closePorts()
			return
		}
	}
}

// close stops the gateway's loops. The underlying endpoint belongs to the
// network owner and is left open.
func (g *gateway) close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
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
