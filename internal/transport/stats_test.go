package transport

import (
	"errors"
	"testing"
	"time"
)

// Delivered counts messages and Bytes what they carried — frame bodies on
// TCP, payloads in memory — which is what the overhead experiments and the
// end-to-end benchmark divide by rounds.
func TestNetStatsCountFramesAndBytes(t *testing.T) {
	payloads := [][]byte{[]byte(`{"round":1}`), {0x01, 0x02, 0x03}, nil}
	for name, net := range map[string]Network{"memory": NewMemory(), "tcp": NewTCP()} {
		a, _ := net.Endpoint("a")
		b, _ := net.Endpoint("b")
		var want uint64
		for _, p := range payloads {
			msg := Message{From: "a", To: "b", Kind: "k", Payload: p}
			if err := a.Send(msg); err != nil {
				t.Fatal(err)
			}
			if name == "tcp" {
				want += uint64(BinarySize(&msg))
			} else {
				want += uint64(len(p))
			}
		}
		for range payloads {
			recvOne(t, b)
		}
		if st := net.NetStats(); st.Delivered != uint64(len(payloads)) || st.Bytes != want || st.Dropped != 0 {
			t.Errorf("%s: stats = %+v, want %d delivered, %d bytes, 0 dropped", name, st, len(payloads), want)
		}
		net.Close()
	}
}

// A message that meets a full inbox is discarded on either transport; it
// must leave a trace in Dropped. The inbox here holds one message and
// nothing reads it while three are sent.
func TestFullInboxCountsDropped(t *testing.T) {
	mem, tcp := NewMemory(), NewTCP()
	mem.inbox, tcp.inbox = 1, 1
	for name, net := range map[string]Network{"memory": mem, "tcp": tcp} {
		a, _ := net.Endpoint("a")
		b, _ := net.Endpoint("b")
		for i := 0; i < 3; i++ {
			// The in-memory sender is told; a TCP sender has written
			// the frame by the time its reader finds the inbox full.
			if err := a.Send(Message{To: "b", Kind: "k"}); (err != nil) != (name == "memory" && i > 0) {
				t.Errorf("%s: send %d: %v", name, i, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for net.NetStats().Dropped < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond) // the TCP reader counts as it goes
		}
		if got := net.NetStats().Dropped; got != 2 {
			t.Errorf("%s: Dropped = %d, want 2", name, got)
		}
		recvOne(t, b)
		net.Close()
	}
}

// One-way blocks drop exactly the configured direction and heal on
// request (and with ClearPartitions).
func TestMemoryOneWayBlock(t *testing.T) {
	net := NewMemory()
	defer net.Close()

	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	net.SetOneWay("a", "b", true)
	if err := a.Send(Message{To: "b", Kind: "k"}); !errors.Is(err, ErrDropped) {
		t.Fatalf("blocked direction: err = %v, want ErrDropped", err)
	}
	if err := b.Send(Message{To: "a", Kind: "k"}); err != nil {
		t.Fatalf("reverse direction: err = %v, want nil", err)
	}
	recvOne(t, a)

	net.SetOneWay("a", "b", false)
	if err := a.Send(Message{To: "b", Kind: "k"}); err != nil {
		t.Fatalf("after unblock: err = %v, want nil", err)
	}
	recvOne(t, b)

	net.SetOneWay("a", "b", true)
	net.ClearPartitions()
	if err := a.Send(Message{To: "b", Kind: "k"}); err != nil {
		t.Fatalf("after ClearPartitions: err = %v, want nil", err)
	}
	if got := net.NetStats().Dropped; got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
}
