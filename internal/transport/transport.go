// Package transport provides named message endpoints for the distributed
// LRGP runtime (package dist) and the event broker (package broker).
//
// Two implementations share one interface: an in-memory hub with
// deterministic delivery and optional fault injection (drops, delay,
// partitions), and a TCP transport that writes uvarint-length-prefixed
// binary frames. Endpoints address each other by name ("host/2",
// "host/ctrl"), so the same code runs over either.
package transport

import "errors"

// Message is one addressed datagram. Payloads are pre-encoded by the
// sender, so the bytes carried are identical across transports.
//
// Payload is shared, not copied, on in-memory delivery and when one
// encoded payload fans out to several peers, so receivers must treat it
// as read-only.
type Message struct {
	// From and To are endpoint names.
	From string
	To   string
	// Kind tags the payload type (e.g. "rate", "report", "batch").
	Kind string
	// Payload is the encoded body. Read-only for receivers.
	Payload []byte
}

// Endpoint is one agent's attachment to a network.
type Endpoint interface {
	// Name returns the endpoint's address.
	Name() string
	// Send delivers the message to msg.To. Send must not block
	// indefinitely on a slow receiver; implementations buffer.
	Send(msg Message) error
	// Recv returns the stream of inbound messages. The channel closes
	// when the endpoint is closed.
	Recv() <-chan Message
	// Close detaches the endpoint and releases resources.
	Close() error
}

// Network creates named endpoints.
type Network interface {
	// Endpoint attaches a new endpoint with the given unique name.
	Endpoint(name string) (Endpoint, error)
	// NetStats returns a snapshot of the network's traffic counters.
	NetStats() Stats
	// Close shuts the whole network down.
	Close() error
}

// Errors shared by implementations.
var (
	ErrClosed      = errors.New("transport: closed")
	ErrDuplicate   = errors.New("transport: duplicate endpoint name")
	ErrUnknownDest = errors.New("transport: unknown destination")
	ErrDropped     = errors.New("transport: message dropped by fault injection")
)

// Stats counts traffic through a network, for communication-overhead
// experiments and the dist telemetry families.
type Stats struct {
	// Delivered counts messages handed to a destination endpoint.
	Delivered uint64
	// Dropped counts messages lost to fault injection or partitions, or
	// discarded because the destination's inbox was full.
	Dropped uint64
	// Bytes totals the payload bytes of delivered messages.
	Bytes uint64
}
