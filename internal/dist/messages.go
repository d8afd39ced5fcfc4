// Package dist runs LRGP as a distributed system: one agent per flow
// source (Algorithm 1) and one agent per node (Algorithms 2 and 3, plus
// link-price computation for the links it owns), exchanging messages over a
// transport.Network. A collector endpoint aggregates per-round state so
// callers can observe the global utility the same way the paper's
// simulations do.
//
// Every agent runs one round loop, bounded by Config.Staleness:
//
//   - K = 0 (the paper's main formulation): agents proceed in lock-step
//     rounds, each waiting for the full set of round-t inputs before
//     computing round t (or t+1) outputs.
//   - K > 0 (Section 3.5's asynchronous formulation): agents proceed on
//     inputs up to K rounds stale, with flow sources averaging the last
//     few prices from each resource, and resend chirps repair lost frames.
package dist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/model"
	"repro/internal/transport"
)

// Endpoint naming scheme.
const (
	collectorName = "collector"
	ctrlName      = "cluster-ctrl"
	ctrlKind      = "ctrl"
	rateKind      = "rate"
	reportKind    = "report"
	// batchKind tags what the gateways exchange: a frame whose payload is a
	// batch of whole messages (see gateway.go). No agent sees one.
	batchKind = "batch"
)

func hostName(k int) string {
	return "host/" + itoa(k)
}

func flowName(i model.FlowID) string {
	return "flow/" + itoa(int(i))
}

func nodeName(b model.NodeID) string {
	return "node/" + itoa(int(b))
}

func itoa(v int) string {
	// Tiny strconv.Itoa clone to keep the hot path allocation-free for
	// small ids is unnecessary; use the simple formulation.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// rateMsg announces a flow's rate for one round (flow agent -> node agents
// and collector).
type rateMsg struct {
	Round int
	Flow  model.FlowID
	Rate  float64
	// Active false announces the flow's departure: this is the flow's
	// final message, and receivers must stop expecting it afterwards.
	Active bool
}

// keyed is one id-tagged value of a report section, and a section lists
// them in ascending id order: the order they are encoded in, so that a
// report's bytes depend on nothing but its content, and the order a
// receiver walks them in.
type keyed[V any] struct {
	ID  int
	Val V
}

type section[V any] []keyed[V]

// reportMsg carries a node's consumer allocation and prices for one round
// (node agent -> flow agents and collector).
type reportMsg struct {
	Round int
	Node  model.NodeID
	Price float64
	// Populations holds n_j for the classes attached at this node.
	Populations section[int]
	// Deliveries holds d_j for the classes attached at this node
	// (multirate mode only; absent in single-rate mode, where d_j = r_i).
	Deliveries section[float64]
	// LinkPrices holds the prices of the links this node owns (links
	// whose To endpoint is this node).
	LinkPrices section[float64]
	// Used and BestBC expose the Equation 12 inputs for observability.
	Used   float64
	BestBC float64
}

// ctrlMsg drives agents from the cluster.
type ctrlMsg struct {
	// RunUntil lets a synchronous flow agent advance up to (and
	// including) the given round, then pause.
	RunUntil int
	// Leave tells a flow agent to announce departure and idle (it can
	// rejoin later).
	Leave bool
	// Join tells an idled flow agent to re-announce itself and resume.
	Join bool
	// Stop tells any agent to exit immediately.
	Stop bool
	// Expect tells a node agent or the collector that flow Flow is
	// rejoining: it counts the flow active from its next round on and
	// echoes the message to its sender, which is how Cluster.JoinFlow
	// knows the rejoin happens before that round.
	Expect bool
	Flow   model.FlowID
}

// Payload encoding. Every dist payload opens with a type tag and uses
// uvarints for ids/rounds/counts and fixed 8-byte floats
// (transport.AppendFloat64); encoding is pure appends, so a caller with a
// reusable buffer pays no allocation. A payload with any other first byte
// is rejected with transport.ErrCorruptFrame.
const (
	rateTag   = 0x01
	reportTag = 0x02
	ctrlTag   = 0x03
)

// outbox turns what an agent sends into payloads. A payload is shared with
// its receivers — the in-memory transport hands over the slice itself, and
// the collector may be rounds behind — so each is cut from a slab and never
// rewritten; enc, the encode scratch, stays the agent's own.
type outbox struct {
	enc  []byte
	slab transport.Slab
}

// seal keeps enc as the scratch for the next encode and returns its
// content as a payload.
func (o *outbox) seal(enc []byte) []byte {
	o.enc = enc
	return o.slab.Copy(enc)
}

func (rm rateMsg) appendBinary(dst []byte) []byte {
	dst = append(dst, rateTag)
	dst = binary.AppendUvarint(dst, uint64(rm.Round))
	dst = binary.AppendUvarint(dst, uint64(rm.Flow))
	dst = transport.AppendFloat64(dst, rm.Rate)
	if rm.Active {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeRate(payload []byte) (rateMsg, error) {
	c := transport.Cursor{Data: payload}
	if tag := c.Byte(); tag != rateTag && c.Err() == nil {
		return rateMsg{}, fmt.Errorf("%w: rate tag 0x%02x", transport.ErrCorruptFrame, tag)
	}
	rm := rateMsg{Round: c.Int(), Flow: model.FlowID(c.Int()), Rate: c.Float64(), Active: c.Byte() != 0}
	if err := trailing(&c, rateKind); err != nil {
		return rateMsg{}, err
	}
	return rm, nil
}

// trailing closes a decode: the cursor's first error, or an error for
// bytes left over.
func trailing(c *transport.Cursor, kind string) error {
	if err := c.Err(); err != nil {
		return err
	}
	if c.Rest() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", transport.ErrCorruptFrame, c.Rest(), kind)
	}
	return nil
}

func (rm *reportMsg) appendBinary(dst []byte) []byte {
	dst = append(dst, reportTag)
	dst = binary.AppendUvarint(dst, uint64(rm.Round))
	dst = binary.AppendUvarint(dst, uint64(rm.Node))
	dst = transport.AppendFloat64(dst, rm.Price)
	dst = transport.AppendFloat64(dst, rm.Used)
	dst = transport.AppendFloat64(dst, rm.BestBC)
	dst = binary.AppendUvarint(dst, uint64(len(rm.Populations)))
	for _, e := range rm.Populations {
		dst = binary.AppendUvarint(dst, uint64(e.ID))
		dst = binary.AppendUvarint(dst, uint64(e.Val))
	}
	dst = appendValues(dst, rm.Deliveries)
	return appendValues(dst, rm.LinkPrices)
}

func appendValues(dst []byte, s section[float64]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, e := range s {
		dst = binary.AppendUvarint(dst, uint64(e.ID))
		dst = transport.AppendFloat64(dst, e.Val)
	}
	return dst
}

// decodeReport decodes into rm, which the receiving agent owns and hands
// in again for its next report: the sections are rewritten in place and
// grow only until they have held the agent's largest report. Nothing is
// sized from a declared count, and every entry consumes payload bytes, so
// a corrupt count can neither over-read nor cause a large allocation.
func decodeReport(payload []byte, rm *reportMsg) error {
	c := transport.Cursor{Data: payload}
	if tag := c.Byte(); tag != reportTag && c.Err() == nil {
		return fmt.Errorf("%w: report tag 0x%02x", transport.ErrCorruptFrame, tag)
	}
	rm.Round = c.Int()
	rm.Node = model.NodeID(c.Int())
	rm.Price = c.Float64()
	rm.Used = c.Float64()
	rm.BestBC = c.Float64()
	rm.Populations = rm.Populations[:0]
	for n := c.Int(); n > 0 && c.Err() == nil; n-- {
		rm.Populations = append(rm.Populations, keyed[int]{c.Int(), c.Int()})
	}
	rm.Deliveries = readValues(&c, rm.Deliveries[:0])
	rm.LinkPrices = readValues(&c, rm.LinkPrices[:0])
	return trailing(&c, reportKind)
}

func readValues(c *transport.Cursor, dst section[float64]) section[float64] {
	for n := c.Int(); n > 0 && c.Err() == nil; n-- {
		dst = append(dst, keyed[float64]{c.Int(), c.Float64()})
	}
	return dst
}

func (cm ctrlMsg) appendBinary(dst []byte) []byte {
	dst = append(dst, ctrlTag)
	dst = binary.AppendUvarint(dst, uint64(cm.RunUntil))
	var flags byte
	if cm.Leave {
		flags |= 1
	}
	if cm.Join {
		flags |= 2
	}
	if cm.Stop {
		flags |= 4
	}
	if !cm.Expect {
		return append(dst, flags)
	}
	return binary.AppendUvarint(append(dst, flags|8), uint64(cm.Flow))
}

func decodeCtrl(payload []byte) (ctrlMsg, error) {
	c := transport.Cursor{Data: payload}
	if tag := c.Byte(); tag != ctrlTag && c.Err() == nil {
		return ctrlMsg{}, fmt.Errorf("%w: ctrl tag 0x%02x", transport.ErrCorruptFrame, tag)
	}
	cm := ctrlMsg{RunUntil: c.Int()}
	flags := c.Byte()
	cm.Leave, cm.Join, cm.Stop, cm.Expect = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	if cm.Expect {
		cm.Flow = model.FlowID(c.Int())
	}
	if err := trailing(&c, ctrlKind); err != nil {
		return ctrlMsg{}, err
	}
	return cm, nil
}
