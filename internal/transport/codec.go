package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// binaryTag is the first byte of an encoded message body; a body that
// starts with anything else is corrupt.
const binaryTag = 'B'

// ErrCorruptFrame reports a binary body that could not be decoded.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// AppendMessage appends the binary wire encoding of msg to dst and
// returns the extended slice. The encoding is:
//
//	'B' | str(From) | str(To) | str(Kind) | bytes(Payload)
//
// where str and bytes are uvarint-length-prefixed byte strings. The
// encode path performs no allocations beyond growing dst.
func AppendMessage(dst []byte, msg *Message) []byte {
	dst = append(dst, binaryTag)
	dst = appendLenBytes(dst, msg.From)
	dst = appendLenBytes(dst, msg.To)
	dst = appendLenBytes(dst, msg.Kind)
	dst = binary.AppendUvarint(dst, uint64(len(msg.Payload)))
	return append(dst, msg.Payload...)
}

// BinarySize returns the encoded size of msg under AppendMessage, for
// exact-capacity buffer sizing.
func BinarySize(msg *Message) int {
	return 1 +
		uvarintLen(uint64(len(msg.From))) + len(msg.From) +
		uvarintLen(uint64(len(msg.To))) + len(msg.To) +
		uvarintLen(uint64(len(msg.Kind))) + len(msg.Kind) +
		uvarintLen(uint64(len(msg.Payload))) + len(msg.Payload)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendLenBytes(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Decoder decodes the messages of one stream. A connection carries one
// sender's frames to one receiver and senders use a handful of kinds, so
// the envelope strings repeat frame after frame: Decode hands back the
// string it saw last wherever the bytes still match and allocates only
// when one changes. The zero value is ready; not safe for concurrent use.
type Decoder struct {
	from, to, kind string
}

// Decode decodes one message from the front of data and returns it along
// with the number of bytes consumed, so callers can iterate over
// concatenated messages (batch payloads). The payload aliases data.
// Truncated or corrupt input returns ErrCorruptFrame-wrapped errors and
// never panics or reads past len(data).
func (d *Decoder) Decode(data []byte) (Message, int, error) {
	from, to, kind, payload, n, err := SplitMessage(data)
	if err != nil {
		return Message{}, 0, err
	}
	return Message{From: reuse(&d.from, from), To: reuse(&d.to, to), Kind: reuse(&d.kind, kind), Payload: payload}, n, nil
}

// SplitMessage cuts the message at the front of data into its envelope
// fields and payload — all aliasing data, an empty payload nil — and
// returns the number of bytes consumed, for a receiver that has its own
// way of turning the envelope bytes into strings. Truncated or corrupt
// input returns an ErrCorruptFrame-wrapped error and never panics or
// reads past len(data).
func SplitMessage(data []byte) (from, to, kind, payload []byte, n int, err error) {
	c := Cursor{Data: data}
	if tag := c.Byte(); tag != binaryTag {
		return nil, nil, nil, nil, 0, fmt.Errorf("%w: bad tag 0x%02x", ErrCorruptFrame, tag)
	}
	from, to, kind = c.Bytes(), c.Bytes(), c.Bytes()
	if payload = c.Bytes(); len(payload) == 0 {
		payload = nil
	}
	return from, to, kind, payload, c.Off, c.Err()
}

// reuse returns *last when b spells it, and otherwise b as a new string
// that it also remembers.
func reuse(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// slabChunk is what a Slab allocates at a time: some tens of dist frames,
// and small enough that one chunk per connection and per agent does not
// show beside the inbox channels.
const slabChunk = 1024

// Slab hands out byte slices that are written once and from then on only
// read — payloads a receiver may hold for as long as it likes — carved
// from shared chunks so that many small ones cost one allocation. A chunk
// is never handed out twice: when it runs out the Slab moves to a fresh
// one and the old chunk lives until the last slice cut from it is dropped.
// The zero value is ready; not safe for concurrent use.
type Slab struct {
	free []byte
}

// Take returns n bytes that no earlier call returned.
func (s *Slab) Take(n int) []byte {
	if len(s.free) < n {
		s.free = make([]byte, max(n, slabChunk))
	}
	b := s.free[:n:n]
	s.free = s.free[n:]
	return b
}

// Copy returns a copy of b cut from the slab.
func (s *Slab) Copy(b []byte) []byte {
	p := s.Take(len(b))
	copy(p, b)
	return p
}

// Cursor is a bounds-checked reader over a binary-encoded buffer. All
// reads return zero values once an error has occurred; check Err after a
// decode sequence. It never reads past len(Data).
type Cursor struct {
	Data []byte
	Off  int
	err  error
}

// Err returns the first decode error, if any.
func (c *Cursor) Err() error { return c.err }

// Rest returns the number of unread bytes.
func (c *Cursor) Rest() int { return len(c.Data) - c.Off }

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorruptFrame, fmt.Sprintf(format, args...))
	}
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if c.Off >= len(c.Data) {
		c.fail("truncated at byte %d", c.Off)
		return 0
	}
	b := c.Data[c.Off]
	c.Off++
	return b
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.Data[c.Off:])
	if n <= 0 {
		c.fail("bad uvarint at byte %d", c.Off)
		return 0
	}
	c.Off += n
	return v
}

// Int reads a uvarint and checks it fits a non-negative int.
func (c *Cursor) Int() int {
	v := c.Uvarint()
	if v > math.MaxInt32 {
		c.fail("int out of range: %d", v)
		return 0
	}
	return int(v)
}

// Float64 reads a fixed 8-byte little-endian float.
func (c *Cursor) Float64() float64 {
	if c.err != nil {
		return 0
	}
	if c.Rest() < 8 {
		c.fail("truncated float at byte %d", c.Off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.Data[c.Off:]))
	c.Off += 8
	return v
}

// Bytes reads a uvarint-length-prefixed byte string. The returned slice
// aliases the cursor's buffer; copy it if it must outlive Data. The
// length is validated against the remaining bytes before use, so a
// corrupt length can neither over-read nor trigger a huge allocation.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(c.Rest()) {
		c.fail("length %d exceeds %d remaining bytes", n, c.Rest())
		return nil
	}
	b := c.Data[c.Off : c.Off+int(n)]
	c.Off += int(n)
	return b
}

// AppendFloat64 appends v as fixed 8-byte little-endian bits.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
