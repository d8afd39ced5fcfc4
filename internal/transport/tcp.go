package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// TCP is a Network whose endpoints live in (potentially) different
// processes and exchange length-prefixed frames over TCP. Each endpoint
// runs its own listener; a registry maps endpoint names to addresses.
// Within one process, NewTCP gives every endpoint a listener on 127.0.0.1
// and keeps the registry itself: a name is registered while its endpoint
// is open, so a closed endpoint's name can be taken again. For
// multi-process deployments, construct endpoints with ListenTCP and a
// resolver of your own.
//
// Every frame is a uvarint length followed by a binary message body (see
// AppendMessage). A reader that meets anything else — an empty or oversized
// frame, a body that does not decode — drops the connection or skips the
// frame; it never trusts it.
type TCP struct {
	mu        sync.Mutex
	endpoints map[string]*tcpEndpoint // the open endpoints, by name
	closed    bool
	inbox     int // queue size of endpoints created from now on
	meter     tcpMeter
}

var _ Network = (*TCP)(nil)

// NewTCP returns an empty TCP network with an in-process registry.
func NewTCP() *TCP {
	return &TCP{endpoints: make(map[string]*tcpEndpoint), inbox: memoryBuffer}
}

// tcpMeter accumulates the counters of a TCP network's endpoints: frames
// and body bytes on the send path, discarded frames on the receive path.
type tcpMeter struct {
	frames, bytes, dropped atomic.Uint64
}

// NetStats implements Network. Delivered counts frames written to a peer
// socket (the transport is reliable, so written means delivered unless the
// peer dies, which shows up as a send error); Bytes totals frame body
// bytes; Dropped counts frames a reader discarded at a full inbox.
func (t *TCP) NetStats() Stats {
	return Stats{
		Delivered: t.meter.frames.Load(),
		Bytes:     t.meter.bytes.Load(),
		Dropped:   t.meter.dropped.Load(),
	}
}

// Endpoint implements Network: it starts a listener on a loopback port and
// registers the endpoint name.
func (t *TCP) Endpoint(name string) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, ok := t.endpoints[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	ep, err := listenTCP(name, "127.0.0.1:0", t.lookup, t.inbox, &t.meter)
	if err != nil {
		return nil, err
	}
	ep.release = func() { t.forget(ep) }
	t.endpoints[name] = ep
	return ep, nil
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(t.endpoints))
	for _, ep := range t.endpoints {
		eps = append(eps, ep)
	}
	t.closed = true
	t.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// lookup resolves an endpoint name to its address.
func (t *TCP) lookup(name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep, ok := t.endpoints[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownDest, name)
	}
	return ep.listener.Addr().String(), nil
}

// forget releases a closed endpoint's name.
func (t *TCP) forget(ep *tcpEndpoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.endpoints, ep.name)
}

// tcpEndpoint is one TCP attachment: a listener for inbound frames and a
// cache of outbound connections.
type tcpEndpoint struct {
	name     string
	listener net.Listener
	resolve  func(string) (string, error)
	meter    *tcpMeter // the owning network's; a standalone endpoint has its own
	release  func()    // frees the name in the owning network; nil when standalone

	in      chan Message
	closed  atomic.Bool // set under mu; read loops poll it without
	mu      sync.Mutex
	conns   map[string]*outConn
	inConns map[net.Conn]struct{}
	wg      sync.WaitGroup
}

var _ Endpoint = (*tcpEndpoint)(nil)

type outConn struct {
	conn net.Conn
	mu   sync.Mutex
	// buf is the reusable frame-encode scratch, guarded by mu. After
	// warm-up the encode path performs no allocations: header and body
	// are appended here and written in one call.
	buf []byte
}

// ListenTCP starts an endpoint listening on addr, resolving peer names
// through the supplied function. It is exported for multi-process use; the
// in-process TCP network uses it internally.
func ListenTCP(name, addr string, resolve func(string) (string, error)) (Endpoint, error) {
	return listenTCP(name, addr, resolve, memoryBuffer, new(tcpMeter))
}

func listenTCP(name, addr string, resolve func(string) (string, error), inbox int, meter *tcpMeter) (*tcpEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		name:     name,
		listener: ln,
		resolve:  resolve,
		meter:    meter,
		in:       make(chan Message, inbox),
		conns:    make(map[string]*outConn),
		inConns:  make(map[net.Conn]struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Name implements Endpoint.
func (e *tcpEndpoint) Name() string { return e.name }

// Send implements Endpoint: it lazily dials the destination, caches the
// connection, and writes one frame — uvarint body length + AppendMessage
// body, assembled in the connection's scratch buffer so the steady-state
// path allocates nothing.
func (e *tcpEndpoint) Send(msg Message) error {
	msg.From = e.name
	c, err := e.connTo(msg.To)
	if err != nil {
		return err
	}
	body := BinarySize(&msg)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = binary.AppendUvarint(c.buf[:0], uint64(body))
	c.buf = AppendMessage(c.buf, &msg)
	if _, err := c.conn.Write(c.buf); err != nil {
		e.dropConn(msg.To)
		return fmt.Errorf("transport: send to %q: %w", msg.To, err)
	}
	e.meter.frames.Add(1)
	e.meter.bytes.Add(uint64(body))
	return nil
}

// Recv implements Endpoint.
func (e *tcpEndpoint) Recv() <-chan Message { return e.in }

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil
	}
	e.closed.Store(true)
	conns := e.conns
	e.conns = map[string]*outConn{}
	inConns := e.inConns
	e.inConns = map[net.Conn]struct{}{}
	e.mu.Unlock()

	_ = e.listener.Close()
	for _, c := range conns {
		_ = c.conn.Close()
	}
	for c := range inConns {
		_ = c.Close()
	}
	e.wg.Wait()
	close(e.in)
	if e.release != nil {
		e.release()
	}
	return nil
}

func (e *tcpEndpoint) connTo(to string) (*outConn, error) {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	addr, err := e.resolve(to)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q (%s): %w", to, addr, err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		_ = conn.Close()
		return nil, ErrClosed
	}
	if existing, ok := e.conns[to]; ok {
		// Lost a benign race; keep the first connection.
		_ = conn.Close()
		return existing, nil
	}
	c := &outConn{conn: conn}
	e.conns[to] = c
	return c, nil
}

func (e *tcpEndpoint) dropConn(to string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[to]; ok {
		_ = c.conn.Close()
		delete(e.conns, to)
	}
}

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed.Load() {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.inConns[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// maxFrame bounds a single frame body.
const maxFrame = 16 << 20

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		_ = conn.Close()
		e.mu.Lock()
		delete(e.inConns, conn)
		e.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var (
		dec  Decoder
		slab Slab // frames are read into it, so a delivered payload is never overwritten
	)
	for {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return
		}
		if n == 0 || n > maxFrame {
			return // no sender writes such a frame: corrupt or hostile, drop the connection
		}
		data := slab.Take(int(n))
		if _, err := io.ReadFull(r, data); err != nil {
			return
		}
		msg, _, err := dec.Decode(data)
		if err != nil {
			continue // skip undecodable frame
		}
		if e.closed.Load() {
			return
		}
		select {
		case e.in <- msg:
		default:
			// Inbound buffer full: drop the frame (TCP transport is
			// best-effort at the application layer, like UDP semantics
			// over a reliable stream) and count it.
			e.meter.dropped.Add(1)
		}
	}
}
