package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// networkFactories lets every behavioral test run against both transports.
var networkFactories = map[string]func() Network{
	"memory": func() Network { return NewMemory() },
	"tcp":    func() Network { return NewTCP() },
}

// Encode marshals v into a Message payload: what these tests send.
func Encode(from, to, kind string, v any) (Message, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return Message{}, fmt.Errorf("transport: encode %s: %w", kind, err)
	}
	return Message{From: from, To: to, Kind: kind, Payload: data}, nil
}

// Decode unmarshals a Message payload into v.
func Decode(m Message, v any) error {
	if err := json.Unmarshal(m.Payload, v); err != nil {
		return fmt.Errorf("transport: decode %s: %w", m.Kind, err)
	}
	return nil
}

func recvOne(t *testing.T, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

func TestSendReceive(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()

			a, err := net.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := net.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}

			msg, err := Encode("a", "b", "greet", map[string]int{"x": 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send(msg); err != nil {
				t.Fatal(err)
			}
			got := recvOne(t, b)
			if got.From != "a" || got.To != "b" || got.Kind != "greet" {
				t.Errorf("got %+v", got)
			}
			var body map[string]int
			if err := Decode(got, &body); err != nil {
				t.Fatal(err)
			}
			if body["x"] != 7 {
				t.Errorf("payload = %v", body)
			}
		})
	}
}

func TestBidirectionalAndMultiMessage(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()

			a, _ := net.Endpoint("a")
			b, _ := net.Endpoint("b")

			const n = 100
			for i := 0; i < n; i++ {
				m, _ := Encode("a", "b", "seq", i)
				if err := a.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				var got int
				if err := Decode(recvOne(t, b), &got); err != nil {
					t.Fatal(err)
				}
				if got != i {
					t.Fatalf("message %d arrived as %d (order broken)", i, got)
				}
			}

			m, _ := Encode("b", "a", "reply", "pong")
			if err := b.Send(m); err != nil {
				t.Fatal(err)
			}
			var s string
			if err := Decode(recvOne(t, a), &s); err != nil {
				t.Fatal(err)
			}
			if s != "pong" {
				t.Errorf("reply = %q", s)
			}
		})
	}
}

func TestDuplicateEndpointName(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			if _, err := net.Endpoint("x"); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Endpoint("x"); !errors.Is(err, ErrDuplicate) {
				t.Errorf("error = %v, want ErrDuplicate", err)
			}
		})
	}
}

func TestUnknownDestination(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			a, _ := net.Endpoint("a")
			m, _ := Encode("a", "ghost", "k", 1)
			if err := a.Send(m); !errors.Is(err, ErrUnknownDest) {
				t.Errorf("error = %v, want ErrUnknownDest", err)
			}
		})
	}
}

func TestEndpointAfterNetworkClose(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			net.Close()
			if _, err := net.Endpoint("late"); !errors.Is(err, ErrClosed) {
				t.Errorf("error = %v, want ErrClosed", err)
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()

			sink, _ := net.Endpoint("sink")
			const senders, each = 8, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				ep, err := net.Endpoint(fmt.Sprintf("s%d", s))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ep Endpoint) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						m, _ := Encode(ep.Name(), "sink", "n", i)
						if err := ep.Send(m); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(ep)
			}
			wg.Wait()
			for i := 0; i < senders*each; i++ {
				recvOne(t, sink)
			}
		})
	}
}

func TestMemoryDropRate(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetDropRate(1.0, 1)

	m, _ := Encode("a", "b", "k", 1)
	if err := a.Send(m); !errors.Is(err, ErrDropped) {
		t.Errorf("error = %v, want ErrDropped", err)
	}
	net.SetDropRate(0, 1)
	if err := a.Send(m); err != nil {
		t.Errorf("send after healing: %v", err)
	}
	recvOne(t, b)
}

func TestMemoryPartition(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	net.SetPartition("a", 1) // b stays in partition 0
	m, _ := Encode("a", "b", "k", 1)
	if err := a.Send(m); !errors.Is(err, ErrDropped) {
		t.Errorf("error = %v, want ErrDropped", err)
	}

	net.ClearPartitions()
	if err := a.Send(m); err != nil {
		t.Errorf("send after healing: %v", err)
	}
	recvOne(t, b)
}

func TestMemoryEndpointCloseReleasesName(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("a"); err != nil {
		t.Errorf("name not released: %v", err)
	}
}

func TestTCPSurvivesPeerRestart(t *testing.T) {
	net := NewTCP()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	m, _ := Encode("a", "b", "k", 1)
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)

	// Close b: the cached conn in a eventually fails, a drops it, and a
	// send to a fresh endpoint still works.
	bAddr := b.(*tcpEndpoint).Addr()
	_ = bAddr
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Sending may succeed (buffered) or fail; either way it must not hang
	// and must not panic. Drain any error.
	_ = a.Send(m)
	_ = a.Send(m)
}

func TestRecvClosedAfterClose(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			a, _ := net.Endpoint("a")
			net.Close()
			select {
			case _, ok := <-a.Recv():
				if ok {
					t.Error("unexpected message")
				}
			case <-time.After(5 * time.Second):
				t.Error("Recv not closed after network close")
			}
		})
	}
}

func TestEncodeDecodeErrors(t *testing.T) {
	if _, err := Encode("a", "b", "bad", func() {}); err == nil {
		t.Error("Encode accepted a function")
	}
	var v int
	if err := Decode(Message{Kind: "k", Payload: []byte("{")}, &v); err == nil {
		t.Error("Decode accepted truncated JSON")
	}
}
