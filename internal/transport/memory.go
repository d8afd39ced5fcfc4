package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// memoryBuffer is the per-endpoint inbound queue size on both transports:
// several rounds of what the busiest dist agent receives. A delivery to a
// full queue is refused and counted in Stats.Dropped.
const memoryBuffer = 1024

// Memory is an in-process Network: endpoints exchange messages through
// buffered channels. It supports deterministic fault injection for tests:
// a seeded drop probability and named partitions.
type Memory struct {
	mu        sync.Mutex
	endpoints map[string]*memoryEndpoint
	closed    bool
	inbox     int // queue size of endpoints created from now on

	dropRate float64
	rng      *rand.Rand
	// dropExempt names sender endpoints whose messages bypass drop
	// injection (partitions still apply), so tests can inject data-plane
	// loss without severing the control plane.
	dropExempt map[string]bool
	// delay postpones every delivery by a fixed latency. Drop and
	// partition decisions are made at send time; the enqueue happens when
	// the timer fires.
	delay time.Duration
	// partition maps endpoint name -> partition id; endpoints in
	// different partitions cannot exchange messages. Empty map means no
	// partitions.
	partition map[string]int
	// oneWay blocks individual directed sender->receiver pairs, for
	// asymmetric-partition experiments where traffic still flows the
	// other way.
	oneWay map[[2]string]bool
	stats  Stats
}

var _ Network = (*Memory)(nil)

// NewMemory returns an empty in-memory network with no fault injection.
func NewMemory() *Memory {
	return &Memory{
		endpoints: make(map[string]*memoryEndpoint),
		partition: make(map[string]int),
		inbox:     memoryBuffer,
	}
}

// SetDropRate makes every subsequent delivery fail with the given
// probability, using a deterministic seeded generator. rate <= 0 disables
// dropping.
func (m *Memory) SetDropRate(rate float64, seed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropRate = rate
	m.rng = rand.New(rand.NewSource(seed))
}

// SetDropExempt marks the named sender endpoints as exempt from drop
// injection: their messages always survive SetDropRate (partitions still
// apply). Use it to keep control-plane endpoints reachable while the data
// plane runs lossy.
func (m *Memory) SetDropExempt(fromNames ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dropExempt == nil {
		m.dropExempt = make(map[string]bool, len(fromNames))
	}
	for _, n := range fromNames {
		m.dropExempt[n] = true
	}
}

// SetDelay postpones every subsequent delivery by d. Delayed messages
// count toward Delivered (and Bytes) when they arrive, not when sent;
// messages whose destination closes or fills up before the timer fires
// count as Dropped. d <= 0 restores immediate delivery.
func (m *Memory) SetDelay(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d < 0 {
		d = 0
	}
	m.delay = d
}

// SetPartition assigns an endpoint to a partition. Messages only flow
// between endpoints of the same partition id. Unassigned endpoints are in
// partition 0.
func (m *Memory) SetPartition(name string, id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partition[name] = id
}

// ClearPartitions heals all partitions, symmetric and one-way.
func (m *Memory) ClearPartitions() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partition = make(map[string]int)
	m.oneWay = nil
}

// SetOneWay blocks (or, with blocked false, unblocks) the single directed
// path from -> to, while the reverse direction keeps flowing. This models
// asymmetric partitions: a receiver that has gone deaf to one sender but
// can still be heard by it.
func (m *Memory) SetOneWay(from, to string, blocked bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.oneWay == nil {
		m.oneWay = make(map[[2]string]bool)
	}
	if blocked {
		m.oneWay[[2]string{from, to}] = true
	} else {
		delete(m.oneWay, [2]string{from, to})
	}
}

// Endpoint implements Network.
func (m *Memory) Endpoint(name string) (Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if _, ok := m.endpoints[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	ep := &memoryEndpoint{
		net:  m,
		name: name,
		in:   make(chan Message, m.inbox),
	}
	m.endpoints[name] = ep
	return ep, nil
}

// Close implements Network.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for _, ep := range m.endpoints {
		ep.closeLocked()
	}
	return nil
}

// deliver routes a message to its destination, applying fault injection.
func (m *Memory) deliver(msg Message) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.dropRate > 0 && m.rng != nil && !m.dropExempt[msg.From] &&
		m.rng.Float64() < m.dropRate {
		m.stats.Dropped++
		m.mu.Unlock()
		return ErrDropped
	}
	if m.partition[msg.From] != m.partition[msg.To] || m.oneWay[[2]string{msg.From, msg.To}] {
		m.stats.Dropped++
		m.mu.Unlock()
		return ErrDropped
	}
	if d := m.delay; d > 0 {
		// Drop and partition were decided above, at send time; the
		// enqueue (and its stats accounting) happens when the timer
		// fires. Late failures — destination closed or full — count as
		// drops since the sender already saw success.
		m.mu.Unlock()
		time.AfterFunc(d, func() { m.enqueueLate(msg) })
		return nil
	}
	err := m.enqueueLocked(msg)
	m.mu.Unlock()
	return err
}

// enqueueLate is the delay timer's delivery: the sender is long gone, so
// a destination that closed in the meantime is a silent drop too.
func (m *Memory) enqueueLate(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if err := m.enqueueLocked(msg); errors.Is(err, ErrUnknownDest) {
		m.stats.Dropped++
	}
}

// enqueueLocked hands msg to its destination endpoint. Callers hold m.mu;
// enqueueing under the lock means the channel cannot be closed
// concurrently. The buffer is large relative to a round's message count,
// so a full buffer signals gross imbalance; count the drop and surface it
// instead of blocking with the network lock held.
func (m *Memory) enqueueLocked(msg Message) error {
	dst, ok := m.endpoints[msg.To]
	if !ok || dst.closed {
		return fmt.Errorf("%w: %q", ErrUnknownDest, msg.To)
	}
	select {
	case dst.in <- msg:
		m.stats.Delivered++
		m.stats.Bytes += uint64(len(msg.Payload))
		return nil
	default:
		m.stats.Dropped++
		return fmt.Errorf("transport: %q inbound buffer full", msg.To)
	}
}

// NetStats implements Network.
func (m *Memory) NetStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// memoryEndpoint is one attachment to a Memory network.
type memoryEndpoint struct {
	net    *Memory
	name   string
	in     chan Message
	closed bool
}

var _ Endpoint = (*memoryEndpoint)(nil)

// Name implements Endpoint.
func (e *memoryEndpoint) Name() string { return e.name }

// Send implements Endpoint.
func (e *memoryEndpoint) Send(msg Message) error {
	msg.From = e.name
	return e.net.deliver(msg)
}

// Recv implements Endpoint.
func (e *memoryEndpoint) Recv() <-chan Message { return e.in }

// Close implements Endpoint.
func (e *memoryEndpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closeLocked()
	delete(e.net.endpoints, e.name)
	return nil
}

func (e *memoryEndpoint) closeLocked() {
	if !e.closed {
		e.closed = true
		close(e.in)
	}
}
