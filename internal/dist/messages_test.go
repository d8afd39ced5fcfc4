package dist

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/transport"
)

// encodeBatch is the layout of a gateway's batch frame: the concatenation
// of its messages' transport.AppendMessage encodings (first byte 'B').
// TestGatewayContract holds the frames a gateway writes to it.
func encodeBatch(msgs []transport.Message) []byte {
	var frame []byte
	for i := range msgs {
		frame = transport.AppendMessage(frame, &msgs[i])
	}
	return frame
}

// distPayloadCases enumerates representative dist payloads, including
// empty report sections.
func distPayloadCases() (rates []rateMsg, reports []reportMsg, ctrls []ctrlMsg) {
	rates = []rateMsg{
		{},
		{Round: 1, Flow: 0, Rate: 0, Active: true},
		{Round: 7, Flow: 5, Rate: 123.456, Active: true},
		{Round: 1 << 20, Flow: 671, Rate: 1e-12, Active: false},
		{Round: 3, Flow: 2, Rate: 1.7976931348623157e308, Active: true},
	}
	reports = []reportMsg{
		{},
		{Round: 1, Node: 0, Price: 0.5, Used: 10, BestBC: 2},
		{
			Round: 42, Node: 17, Price: 3.25, Used: 99.5, BestBC: 0.125,
			Populations: section[int]{{0, 5}, {3, 0}, {19, 1200}},
		},
		{
			Round: 9, Node: 2, Price: 1e-9,
			Populations: section[int]{{7, 3}},
			Deliveries:  section[float64]{{7, 0.75}},
			LinkPrices:  section[float64]{{0, 0.001}, {4, 12.5}},
		},
		{Round: 2, Node: 1, LinkPrices: section[float64]{{3, 0}}},
	}
	ctrls = []ctrlMsg{
		{},
		{RunUntil: 100},
		{Leave: true},
		{Join: true},
		{Stop: true},
		{RunUntil: 1 << 30, Leave: true, Join: true, Stop: true},
		{Expect: true},
		{Expect: true, Flow: 300},
		{RunUntil: 7, Stop: true, Expect: true, Flow: 5},
	}
	return rates, reports, ctrls
}

// sameReport compares two reports, an empty section equal to an absent one
// (a decode into reused scratch leaves a section empty, not nil).
func sameReport(a, b reportMsg) bool {
	return a.Round == b.Round && a.Node == b.Node && a.Price == b.Price && a.Used == b.Used && a.BestBC == b.BestBC &&
		slices.Equal(a.Populations, b.Populations) && slices.Equal(a.Deliveries, b.Deliveries) && slices.Equal(a.LinkPrices, b.LinkPrices)
}

// TestDistPayloadRoundTrip is the codec property test: every payload must
// decode to the values it was encoded from — a report also when it lands
// in scratch that still holds a larger one.
func TestDistPayloadRoundTrip(t *testing.T) {
	rates, reports, ctrls := distPayloadCases()
	for _, rm := range rates {
		if got, err := decodeRate(rm.appendBinary(nil)); err != nil || got != rm {
			t.Errorf("rate round trip: got %+v, %v; want %+v", got, err, rm)
		}
	}
	scratch := reports[3]
	for _, rm := range reports {
		if err := decodeReport(rm.appendBinary(nil), &scratch); err != nil || !sameReport(scratch, rm) {
			t.Errorf("report round trip: got %+v, %v; want %+v", scratch, err, rm)
		}
	}
	for _, cm := range ctrls {
		if got, err := decodeCtrl(cm.appendBinary(nil)); err != nil || got != cm {
			t.Errorf("ctrl round trip: got %+v, %v; want %+v", got, err, cm)
		}
	}
}

// TestGoldenBytes pins the encodings byte for byte. A report's sections
// are written in ascending id order, so its bytes depend on nothing but
// its content and a change of layout cannot hide behind a round trip.
func TestGoldenBytes(t *testing.T) {
	rate := rateMsg{Round: 300, Flow: 5, Rate: 1.5, Active: true}
	report := reportMsg{
		Round: 9, Node: 2, Price: 0.5, Used: 2, BestBC: -1,
		Populations: section[int]{{7, 3}, {130, 0}},
		Deliveries:  section[float64]{{7, 0.75}},
		LinkPrices:  section[float64]{{0, 1}, {4, 12.5}},
	}
	ctrl := ctrlMsg{RunUntil: 10, Join: true, Stop: true}
	batch := encodeBatch([]transport.Message{
		{From: "flow/5", To: "node/2", Kind: rateKind, Payload: rate.appendBinary(nil)},
		{From: "cluster-ctrl", To: "flow/5", Kind: ctrlKind, Payload: ctrl.appendBinary(nil)},
	})
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"rate", rate.appendBinary(nil), "01 ac02 05 000000000000f83f 01"},
		{"report", report.appendBinary(nil), "02 09 02 000000000000e03f 0000000000000040 000000000000f0bf" +
			"02 07 03 8201 00" + "01 07 000000000000e83f" + "02 00 000000000000f03f 04 0000000000002940"},
		{"ctrl", ctrl.appendBinary(nil), "03 0a 06"},
		{"batch", batch, "42 06 666c6f772f35 06 6e6f64652f32 04 72617465 0d 01ac0205000000000000f83f01" +
			"42 0c 636c75737465722d6374726c 06 666c6f772f35 04 6374726c 03 030a06"},
	} {
		if want := strings.ReplaceAll(tc.want, " ", ""); hex.EncodeToString(tc.got) != want {
			t.Errorf("%s encodes to\n  %x, want\n  %s", tc.name, tc.got, want)
		}
	}
}

// TestDistPayloadDecodeRejectsCorruption: every truncation of a binary
// payload, and trailing garbage after it, must error — never panic or
// silently succeed.
func TestDistPayloadDecodeRejectsCorruption(t *testing.T) {
	_, reports, _ := distPayloadCases()
	full := reports[3].appendBinary(nil)
	var rm reportMsg
	for cut := 0; cut < len(full); cut++ {
		if err := decodeReport(full[:cut:cut], &rm); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
	if err := decodeReport(append(bytes.Clone(full), 0xFF), &rm); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
	if _, err := decodeRate([]byte{reportTag, 1, 2}); err == nil {
		t.Error("wrong tag accepted by decodeRate")
	}
	// The JSON objects deleted senders wrote are an unknown tag like any
	// other: rejected, not parsed.
	for _, legacy := range []string{`{"round":7,"flow":5,"rate":123.456,"active":true}`, `{"round":1,"node":0,"price":0.5}`, `{"runUntil":100,"stop":true}`} {
		_, rateErr := decodeRate([]byte(legacy))
		_, ctrlErr := decodeCtrl([]byte(legacy))
		for _, err := range []error{rateErr, ctrlErr, decodeReport([]byte(legacy), &rm)} {
			if !errors.Is(err, transport.ErrCorruptFrame) {
				t.Errorf("%s: %v, want ErrCorruptFrame", legacy, err)
			}
		}
	}
	// A huge declared section count must not allocate or over-read.
	huge := []byte{reportTag, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}
	if err := decodeReport(huge, &rm); err == nil {
		t.Error("oversized population count accepted")
	}
	if cap(rm.Populations) > len(huge) {
		t.Errorf("oversized population count grew the scratch to %d entries", cap(rm.Populations))
	}
}

// TestEncodeDecodeBatch round-trips a batch frame through a gateway's
// demux: every message reaches its port as it was sent, in order, its
// payload aliasing the frame's instead of copying it.
func TestEncodeDecodeBatch(t *testing.T) {
	msgs := []transport.Message{
		{From: "flow/1", To: "node/0", Kind: rateKind, Payload: rateMsg{Round: 3, Flow: 1, Rate: 2.5, Active: true}.appendBinary(nil)},
		{From: "node/0", To: "flow/1", Kind: reportKind, Payload: (&reportMsg{Round: 3, Node: 0, Price: 1.5}).appendBinary(nil)},
		{From: "cluster-ctrl", To: "flow/1", Kind: ctrlKind, Payload: ctrlMsg{Stop: true}.appendBinary(nil)},
	}
	net := transport.NewMemory()
	defer net.Close()
	g, ports := testGateway(t, net, "host/0", map[string]string{"node/0": "host/0", "flow/1": "host/0"}, false)
	frame := encodeBatch(msgs)
	g.demux(frame)
	got := append(drain(ports["node/0"]), drain(ports["flow/1"])...)
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("batch round trip: got %+v, want %+v", got, msgs)
	}
	if last := got[2].Payload; &last[len(last)-1] != &frame[len(frame)-1] {
		t.Error("inner payload does not alias the batch payload")
	}
	g.demux(nil)
	if got := append(drain(ports["node/0"]), drain(ports["flow/1"])...); len(got) != 0 {
		t.Errorf("empty batch delivered %v", got)
	}
}

// FuzzDecodeDistPayloads throws arbitrary bytes at every dist payload
// decoder: none may panic or over-read, and any successfully decoded binary
// payload must survive a canonical re-encode/decode round trip.
func FuzzDecodeDistPayloads(f *testing.F) {
	rates, reports, ctrls := distPayloadCases()
	for _, rm := range rates {
		f.Add(rm.appendBinary(nil))
	}
	for _, rm := range reports {
		f.Add(rm.appendBinary(nil))
	}
	for _, cm := range ctrls {
		f.Add(cm.appendBinary(nil))
	}
	f.Add(encodeBatch([]transport.Message{{From: "flow/1", To: "node/0", Kind: rateKind, Payload: rates[2].appendBinary(nil)}}))
	f.Add([]byte(`{"round":7,"flow":5,"rate":123.456,"active":true}`)) // what JSON senders wrote: rejected
	f.Add([]byte(`[{"from":"flow/1","to":"node/0","kind":"rate","payload":{"round":3}}]`))
	net := transport.NewMemory()
	defer net.Close()
	g, ports := testGateway(f, net, "host/0", map[string]string{"node/0": "host/0"}, false)
	port := ports["node/0"]
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle compares canonical bytes, not structs: a decoded
		// float may be NaN, which no struct comparison finds equal.
		if rm, err := decodeRate(data); err == nil {
			again, err := decodeRate(rm.appendBinary(nil))
			if err != nil || data[0] != rateTag || !bytes.Equal(again.appendBinary(nil), rm.appendBinary(nil)) {
				t.Fatalf("rate re-encode mismatch: %+v vs %+v (%v)", again, rm, err)
			}
		}
		var rm, again reportMsg
		if err := decodeReport(data, &rm); err == nil {
			if err := decodeReport(rm.appendBinary(nil), &again); err != nil || data[0] != reportTag || !bytes.Equal(again.appendBinary(nil), rm.appendBinary(nil)) {
				t.Fatalf("report re-encode mismatch: %+v vs %+v (%v)", again, rm, err)
			}
		}
		if cm, err := decodeCtrl(data); err == nil {
			again, err := decodeCtrl(cm.appendBinary(nil))
			if err != nil || data[0] != ctrlTag || again != cm {
				t.Fatalf("ctrl re-encode mismatch: %+v vs %+v (%v)", again, cm, err)
			}
		}
		// A gateway delivers the messages of a frame up to the first that
		// does not decode; what it delivered must survive a re-encode.
		g.demux(data)
		if msgs := drain(port); len(msgs) > 0 {
			g.demux(encodeBatch(msgs))
			if again := drain(port); !reflect.DeepEqual(again, msgs) {
				t.Fatalf("batch re-encode mismatch: %+v vs %+v", again, msgs)
			}
		}
	})
}
