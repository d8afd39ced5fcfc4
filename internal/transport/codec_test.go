package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

func TestMessageBinaryRoundTrip(t *testing.T) {
	cases := []Message{
		{},
		{From: "a", To: "b", Kind: "k"},
		{From: "flow/12", To: "node/3", Kind: "rate", Payload: []byte(`{"x":1}`)},
		{From: "n", To: "m", Kind: "blob", Payload: bytes.Repeat([]byte{0, 1, 0xff}, 100)},
		{From: strings.Repeat("long", 100), To: "t", Kind: "", Payload: []byte{binaryTag}},
	}
	var d Decoder
	for i, msg := range cases {
		enc := AppendMessage(nil, &msg)
		if len(enc) != BinarySize(&msg) {
			t.Errorf("case %d: len(enc)=%d, BinarySize=%d", i, len(enc), BinarySize(&msg))
		}
		got, n, err := d.Decode(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Errorf("case %d: consumed %d of %d bytes", i, n, len(enc))
		}
		if got.From != msg.From || got.To != msg.To || got.Kind != msg.Kind ||
			!bytes.Equal(got.Payload, msg.Payload) {
			t.Errorf("case %d: got %+v, want %+v", i, got, msg)
		}
	}
}

func TestDecodeMessageConcatenated(t *testing.T) {
	a := Message{From: "a", To: "b", Kind: "one", Payload: []byte(`1`)}
	b := Message{From: "b", To: "c", Kind: "two"}
	enc := AppendMessage(AppendMessage(nil, &a), &b)

	var d Decoder
	got1, n1, err := d.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := d.Decode(enc[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(enc) {
		t.Errorf("consumed %d+%d of %d", n1, n2, len(enc))
	}
	if got1.Kind != "one" || got2.Kind != "two" {
		t.Errorf("kinds: %q %q", got1.Kind, got2.Kind)
	}
}

func TestDecodeMessageRejectsCorrupt(t *testing.T) {
	good := AppendMessage(nil, &Message{From: "a", To: "b", Kind: "k", Payload: []byte("xyz")})
	var d Decoder

	// Every truncation must error, never panic or over-read.
	for n := 0; n < len(good); n++ {
		if _, _, err := d.Decode(good[:n]); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("truncated at %d: err = %v, want ErrCorruptFrame", n, err)
		}
	}
	// Wrong tag.
	if _, _, err := d.Decode([]byte(`{"from":"a"}`)); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("JSON body: err = %v, want ErrCorruptFrame", err)
	}
	// Length field claiming far more bytes than present must not allocate
	// or over-read.
	huge := []byte{binaryTag, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := d.Decode(huge); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("huge length: err = %v, want ErrCorruptFrame", err)
	}
}

func TestDecodeMessageDoesNotAliasInput(t *testing.T) {
	// The envelope strings are copies, including the ones a Decoder hands
	// back again from an earlier frame; only the payload aliases the input.
	var d Decoder
	buf := AppendMessage(nil, &Message{From: "a", To: "b", Kind: "k", Payload: []byte("data")})
	first, _, err := d.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf = AppendMessage(buf[:0], &Message{From: "a", To: "b", Kind: "k", Payload: []byte("more")})
	second, _, err := d.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xee
	}
	for _, got := range []Message{first, second} {
		if got.From != "a" || got.To != "b" || got.Kind != "k" {
			t.Errorf("decoded envelope aliases the input buffer: %+v", got)
		}
	}
	if second.Payload[0] != 0xee {
		t.Error("payload was copied; Decode documents that it aliases the input")
	}
}

func TestCursorPrimitives(t *testing.T) {
	var buf []byte
	buf = AppendFloat64(buf, math.MaxFloat64)
	buf = AppendFloat64(buf, math.Copysign(0, -1))

	c := Cursor{Data: buf}
	if v := c.Float64(); v != math.MaxFloat64 {
		t.Errorf("float = %v", v)
	}
	if v := c.Float64(); v != 0 || !math.Signbit(v) {
		t.Errorf("negative zero lost: %v", v)
	}
	if c.Err() != nil || c.Rest() != 0 {
		t.Errorf("err=%v rest=%d", c.Err(), c.Rest())
	}
	// Reading past the end errors and stays erred.
	if c.Float64(); c.Err() == nil {
		t.Error("read past end did not error")
	}
	if c.Byte() != 0 || c.Uvarint() != 0 || c.Bytes() != nil {
		t.Error("reads after error must return zero values")
	}

	// Int rejects values beyond int32.
	c2 := Cursor{Data: AppendMessage(nil, &Message{})}
	_ = c2
	big := Cursor{Data: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}}
	if big.Int(); big.Err() == nil {
		t.Error("Int accepted out-of-range value")
	}
}

func TestAppendMessageZeroAlloc(t *testing.T) {
	msg := Message{From: "flow/42", To: "node/7", Kind: "rate", Payload: []byte(`{"round":9,"rate":1.5}`)}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendMessage(buf[:0], &msg)
	})
	if allocs != 0 {
		t.Errorf("AppendMessage allocs/op = %v, want 0", allocs)
	}
}

// TestTCPFrames runs traffic over the one frame the transport writes and
// checks payloads arrive intact and in order.
func TestTCPFrames(t *testing.T) {
	net := NewTCP()
	defer net.Close()

	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	for i := 0; i < 50; i++ {
		m, err := Encode("a", "b", "seq", i)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		var got int
		if err := Decode(recvOne(t, b), &got); err != nil {
			t.Fatal(err)
		}
		if got != i {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

// TestTCPRejectsForeignFrames: what arrives on a socket is input from
// outside the program. A frame no sender here writes — the 4-byte-length
// JSON layout deleted writers used, a body that is not a binary message, a
// length beyond maxFrame — is skipped or costs the sender its connection;
// it is never delivered, and the endpoint goes on serving others.
func TestTCPRejectsForeignFrames(t *testing.T) {
	good := Message{From: "a", To: "b", Kind: "k", Payload: []byte("ok")}
	frame := func(body []byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	}
	jsonBody := []byte(`{"from":"a","to":"b","kind":"k","payload":{"x":1}}`)
	for _, tc := range []struct {
		name    string
		give    []byte
		dropped bool // the connection, as opposed to the frame alone
	}{
		{"legacy 4-byte header", append([]byte{0, 0, 0, byte(len(jsonBody))}, jsonBody...), true},
		{"length beyond maxFrame", binary.AppendUvarint(nil, maxFrame+1), true},
		{"JSON body", frame(jsonBody), false},
		{"corrupt inner length", frame([]byte{binaryTag, 0xff, 0xff, 0xff, 0xff, 0x7f}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := NewTCP()
			defer tn.Close()
			b, _ := tn.Endpoint("b")
			conn, err := net.Dial("tcp", b.(*tcpEndpoint).Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The foreign bytes, then a good frame on the same connection.
			if _, err := conn.Write(append(bytes.Clone(tc.give), frame(AppendMessage(nil, &good))...)); err != nil {
				t.Fatal(err)
			}
			if !tc.dropped {
				if got := recvOne(t, b); got.Kind != "k" || string(got.Payload) != "ok" {
					t.Fatalf("after the skipped frame: %+v, want the good one", got)
				}
				return
			}
			// The reader hangs up; nothing of the stream was delivered, and
			// another sender still gets through.
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatal("the reader answered instead of closing the connection")
			}
			a, _ := tn.Endpoint("a")
			if err := a.Send(Message{To: "b", Kind: "next"}); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, b); got.Kind != "next" {
				t.Fatalf("delivered %+v from a dropped connection", got)
			}
		})
	}
}

// TestDecoderReusesStrings: a stream's repeating envelope strings cost no
// allocation after the first frame, the payload aliases the frame, and a
// change of sender or kind is still decoded correctly.
func TestDecoderReusesStrings(t *testing.T) {
	var d Decoder
	first := AppendMessage(nil, &Message{From: "flow/1", To: "node/2", Kind: "rate", Payload: []byte{1, 2, 3}})
	if _, _, err := d.Decode(first); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := d.Decode(first); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decode of a repeating envelope allocs/op = %v, want 0", allocs)
	}
	got, _, _ := d.Decode(first)
	if &got.Payload[0] != &first[len(first)-3] {
		t.Error("payload does not alias the frame")
	}
	other := AppendMessage(nil, &Message{From: "flow/9", To: "node/2", Kind: "echo"})
	if got, _, err := d.Decode(other); err != nil || got.From != "flow/9" || got.To != "node/2" || got.Kind != "echo" || got.Payload != nil {
		t.Errorf("changed envelope decoded to %+v, %v", got, err)
	}
}

// TestSlabNeverReusesBytes: slices cut from a Slab do not overlap, across
// a chunk boundary and for a request larger than a chunk.
func TestSlabNeverReusesBytes(t *testing.T) {
	var s Slab
	var cut [][]byte
	for i, n := range []int{100, 900, 100, 3 * slabChunk, 1} {
		b := s.Copy(bytes.Repeat([]byte{byte(i)}, n))
		if len(b) != n || cap(b) != n {
			t.Fatalf("slice %d: len %d cap %d, want %d", i, len(b), cap(b), n)
		}
		cut = append(cut, b)
	}
	for i, b := range cut {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, len(b))) {
			t.Errorf("slice %d was overwritten by a later one", i)
		}
	}
}

func TestTCPBinaryFramesSmaller(t *testing.T) {
	msg := Message{From: "flow/42", To: "node/7", Kind: "rate",
		Payload: []byte(`{"round":9,"flow":42,"rate":1.52}`)}
	// The frame the JSON wire (deleted at 525a158) wrote for it.
	jsonLen := 4 + len(`{"from":"flow/42","to":"node/7","kind":"rate","payload":{"round":9,"flow":42,"rate":1.52}}`)
	binLen := 1 + BinarySize(&msg) // 1-byte uvarint header at this size
	if binLen >= jsonLen {
		t.Errorf("binary frame %dB not smaller than JSON frame %dB", binLen, jsonLen)
	}
}

func TestMemoryDelay(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetDelay(20 * time.Millisecond)

	m, _ := Encode("a", "b", "k", 1)
	start := time.Now()
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 10*time.Millisecond {
		t.Error("Send blocked for the delay instead of returning")
	}
	recvOne(t, b)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~20ms", elapsed)
	}
	if st := net.NetStats(); st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}

	// A delayed message whose destination closes before the timer fires
	// counts as dropped, and nothing panics.
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	time.Sleep(50 * time.Millisecond)
	if st := net.NetStats(); st.Dropped != 1 {
		t.Errorf("late drop not counted: %+v", st)
	}
	net.SetDelay(0)
}

func TestMemoryDropExempt(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	ctrl, _ := net.Endpoint("ctrl")
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetDropRate(1.0, 7)
	net.SetDropExempt("ctrl")

	m, _ := Encode("a", "b", "k", 1)
	if err := a.Send(m); !errors.Is(err, ErrDropped) {
		t.Errorf("non-exempt send: %v, want ErrDropped", err)
	}
	cm, _ := Encode("ctrl", "b", "k", 2)
	if err := ctrl.Send(cm); err != nil {
		t.Errorf("exempt send dropped: %v", err)
	}
	recvOne(t, b)

	// Exemption does not bypass partitions.
	net.SetPartition("ctrl", 1)
	if err := ctrl.Send(cm); !errors.Is(err, ErrDropped) {
		t.Errorf("partitioned exempt send: %v, want ErrDropped", err)
	}
}

// FuzzDecodeMessage drives the binary frame decoder with arbitrary bytes:
// it must either decode within bounds or error, never panic or over-read.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{binaryTag})
	f.Add([]byte(`{"from":"a","to":"b"}`))
	f.Add(AppendMessage(nil, &Message{From: "a", To: "b", Kind: "k", Payload: []byte(`{"x":1}`)}))
	f.Add([]byte{binaryTag, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		msg, n, err := d.Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("rejected with %v, want ErrCorruptFrame", err)
			}
			return
		}
		if data[0] != binaryTag {
			t.Fatalf("decoded a body that starts with %q", data[0])
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// A successful decode must survive a re-encode/decode round trip.
		// (Byte equality is too strict: binary.Uvarint accepts
		// non-canonical varint paddings that re-encode shorter.)
		re := AppendMessage(nil, &msg)
		msg2, n2, err := d.Decode(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-decode failed: n=%d err=%v", n2, err)
		}
		if msg2.From != msg.From || msg2.To != msg.To || msg2.Kind != msg.Kind ||
			!bytes.Equal(msg2.Payload, msg.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", msg, msg2)
		}
	})
}

func BenchmarkAppendMessage(b *testing.B) {
	msg := Message{From: "flow/42", To: "node/7", Kind: "rate",
		Payload: []byte(`{"round":9,"flow":42,"rate":1.52,"active":true}`)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMessage(buf[:0], &msg)
	}
}
