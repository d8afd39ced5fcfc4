package dist

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport"
)

// testPortDepth is the inbox depth of the ports testGateway attaches.
const testPortDepth = 16

// testGateway starts the gateway of `host` on net under the given
// agent -> host routing, with a port for every agent routed to it.
func testGateway(t testing.TB, net transport.Network, host string, route map[string]string, inline bool) (*gateway, map[string]*hostPort) {
	t.Helper()
	ep, err := net.Endpoint(host)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateway(ep, route, internTable(route), inline, nil)
	t.Cleanup(g.close)
	ports := make(map[string]*hostPort)
	for name, h := range route {
		if h == host {
			ports[name] = g.portDepth(name, testPortDepth)
		}
	}
	return g, ports
}

// heldGateway is testGateway with the flusher's part played by the test: a
// wake-up stays in g.kick, where woken finds it, and nothing is flushed
// unless the test calls flush.
func heldGateway(t testing.TB, net transport.Network, host string, route map[string]string) (*gateway, map[string]*hostPort) {
	t.Helper()
	g, ports := testGateway(t, net, host, route, true)
	g.mu.Lock()
	g.kick = make(chan struct{}, 1)
	g.mu.Unlock()
	return g, ports
}

// woken takes the wake-up the gateway has put for its flusher, if any.
func woken(g *gateway) bool {
	select {
	case <-g.kick:
		return true
	default:
		return false
	}
}

// busy makes the named ports of g busy the way a peer does: by a frame
// with a message for each.
func busy(g *gateway, names ...string) {
	var frame []transport.Message
	for k, name := range names {
		frame = append(frame, seq("node/1", name, k))
	}
	g.demux(encodeBatch(frame))
}

// drain empties a port's inbox without waiting.
func drain(p *hostPort) []transport.Message {
	var got []transport.Message
	for {
		select {
		case m := <-p.in:
			got = append(got, m)
		default:
			return got
		}
	}
}

// recvN waits for n messages on a port: for the event, not for a while.
func recvN(t *testing.T, p *hostPort, n int) []transport.Message {
	t.Helper()
	got := make([]transport.Message, 0, n)
	for len(got) < n {
		select {
		case m, ok := <-p.in:
			if !ok {
				t.Fatalf("%s closed after %d of %d messages", p.name, len(got), n)
			}
			got = append(got, m)
		case <-time.After(30 * time.Second):
			t.Fatalf("%s received %d of %d messages", p.name, len(got), n)
		}
	}
	return got
}

func seq(from, to string, k int) transport.Message {
	return transport.Message{From: from, To: to, Kind: rateKind, Payload: []byte{byte(k)}}
}

// TestRefusedSendCountsNothing: a message to a destination the gateway
// cannot route is refused with transport.ErrUnknownDest and leaves the
// gateway's traffic as it was; a routed one, local or remote, counts.
func TestRefusedSendCountsNothing(t *testing.T) {
	net := transport.NewMemory()
	defer net.Close()
	g, ports := heldGateway(t, net, "host/0", map[string]string{"flow/0": "host/0", "node/0": "host/0", "node/1": "host/1"})
	if err := ports["flow/0"].Send(seq("", "flow/999", 0)); !errors.Is(err, transport.ErrUnknownDest) {
		t.Fatalf("send to flow/999: %v, want transport.ErrUnknownDest", err)
	}
	if tr := g.trafficNow(); tr != (Traffic{}) {
		t.Errorf("a refused send left the traffic at %+v", tr)
	}
	for _, to := range []string{"node/0", "node/1"} {
		if err := ports["flow/0"].Send(seq("", to, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if tr := g.trafficNow(); tr.Messages != 2 || tr.Bytes != 2 {
		t.Errorf("two routed one-byte sends counted as %+v", tr)
	}
}

// TestGatewayContract pins what the agents rely on, against bare gateways
// on the in-memory network: no cluster, and nothing waits on a clock.
func TestGatewayContract(t *testing.T) {
	route := map[string]string{
		"flow/0": "host/0", "node/0": "host/0",
		"node/1": "host/1", "flow/1": "host/1",
		"node/2": "host/2",
		ctrlName: ctrlHost,
	}

	t.Run("one frame per destination host", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := testGateway(t, net, "host/0", route, false)
		_, p1 := testGateway(t, net, "host/1", route, false)
		host2, err := net.Endpoint("host/2") // bare, to see the frame itself
		if err != nil {
			t.Fatal(err)
		}

		g0.flushMu.Lock() // the flusher is woken by the first send, from an idle port, and waits here
		var to1, to2 []transport.Message
		for k := 0; k < 5; k++ {
			to1 = append(to1, seq("flow/0", "node/1", k), seq("node/0", "flow/1", k))
			to2 = append(to2, seq("flow/0", "node/2", k))
		}
		for k := range to2 {
			for _, m := range []transport.Message{to1[2*k], to1[2*k+1], to2[k]} {
				if err := p0[m.From].Send(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		g0.flushMu.Unlock()

		frame := <-host2.Recv()
		if frame.Kind != batchKind || frame.From != "host/0" || !reflect.DeepEqual([]byte(frame.Payload), encodeBatch(to2)) {
			t.Errorf("frame to host/2 is %q from %s: % x, want the five messages in send order", frame.Kind, frame.From, frame.Payload)
		}
		recvN(t, p1["node/1"], 5)
		recvN(t, p1["flow/1"], 5)
		if st, tr := net.NetStats(), g0.trafficNow(); st.Delivered != 2 || tr.Frames != 2 || tr.Messages != 15 {
			t.Errorf("15 messages to two hosts left as %d frames (%d delivered, %d messages counted), want 2", tr.Frames, st.Delivered, tr.Messages)
		}
	})

	t.Run("nothing goes on the wire while a port is busy", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := heldGateway(t, net, "host/0", route)
		busy(g0, "flow/0")
		for k := 0; k < 3; k++ {
			for _, to := range []string{"node/1", "node/2", "flow/1"} {
				if err := p0["flow/0"].Send(seq("", to, k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if woken(g0) {
			t.Error("a busy port's sends woke the flusher")
		}
		p0["flow/0"].idle() // its input is still unread: it is not about to block
		if woken(g0) {
			t.Error("a port with unread input went idle")
		}
		drain(p0["flow/0"])
		p0["flow/0"].idle()
		if !woken(g0) {
			t.Error("the last busy port went idle and the flusher slept on")
		}
		if st := net.NetStats(); st.Delivered != 0 {
			t.Errorf("%d frames on the wire with nobody flushing", st.Delivered)
		}
	})

	t.Run("the last busy port going idle writes one frame per destination host", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := testGateway(t, net, "host/0", route, false)
		_, p1 := testGateway(t, net, "host/1", route, false)
		host2, err := net.Endpoint("host/2")
		if err != nil {
			t.Fatal(err)
		}
		busy(g0, "flow/0", "node/0")
		var to2 []transport.Message
		for k := 0; k < 5; k++ {
			to2 = append(to2, seq("flow/0", "node/2", k))
			for _, m := range []transport.Message{seq("flow/0", "node/1", k), seq("node/0", "flow/1", k), to2[k]} {
				if err := p0[m.From].Send(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, name := range []string{"flow/0", "node/0"} {
			drain(p0[name])
			p0[name].idle()
		}
		select {
		case frame := <-host2.Recv():
			if !reflect.DeepEqual([]byte(frame.Payload), encodeBatch(to2)) {
				t.Errorf("frame to host/2 carries % x, want the five messages in send order", frame.Payload)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("nothing flushed after the last busy port went idle")
		}
		recvN(t, p1["node/1"], 5)
		recvN(t, p1["flow/1"], 5)
		if st, tr := net.NetStats(), g0.trafficNow(); st.Delivered != 2 || tr.Frames != 2 {
			t.Errorf("one round to two hosts left as %d frames (%d delivered), want 2", tr.Frames, st.Delivered)
		}
	})

	t.Run("a send from an idle port is flushed at once", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := heldGateway(t, net, "host/0", route)
		busy(g0, "flow/0") // the host is busy; the sender is not
		if err := p0["node/0"].Send(seq("", "flow/1", 0)); err != nil {
			t.Fatal(err)
		}
		if !woken(g0) {
			t.Fatal("a send from an idle port waited for the host")
		}
		if err := p0["node/0"].Send(seq("", "flow/0", 1)); err != nil {
			t.Fatal(err)
		}
		if woken(g0) {
			t.Error("a co-located send woke the flusher")
		}
	})

	t.Run("a port's second step before a flush flushes its first", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := heldGateway(t, net, "host/0", route)
		_, p1 := testGateway(t, net, "host/1", route, false)
		busy(g0, "flow/0", "node/0")
		step := func(k int) {
			if err := p0["flow/0"].Send(seq("", "node/1", k)); err != nil {
				t.Fatal(err)
			}
			p0["flow/0"].stepped()
		}
		step(0)
		if woken(g0) {
			t.Fatal("a busy port's first step woke the flusher")
		}
		step(1)
		if !woken(g0) {
			t.Fatal("a second step on top of a staged one did not wake the flusher")
		}
		if err := g0.flush(); err != nil {
			t.Fatal(err)
		}
		if got := recvN(t, p1["node/1"], 2); got[0].Payload[0] != 0 || got[1].Payload[0] != 1 {
			t.Errorf("the flush delivered %v", got)
		}
		step(2)
		p0["node/0"].stepped()
		if woken(g0) {
			t.Error("a step after a flush, or another port's first, woke the flusher")
		}
	})

	t.Run("a detached port with unread input does not hold its host busy", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := heldGateway(t, net, "host/0", route)
		busy(g0, "flow/0", "node/0")
		if err := p0["node/0"].Send(seq("", "flow/1", 0)); err != nil {
			t.Fatal(err)
		}
		p0["flow/0"].detach()
		busy(g0, "flow/0") // more input nobody will read
		if woken(g0) {
			t.Fatal("the flusher woke with node/0 still busy")
		}
		drain(p0["node/0"])
		p0["node/0"].idle()
		if !woken(g0) {
			t.Error("a detached port's unread inbox held the host busy")
		}
	})

	t.Run("order across flushes", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := testGateway(t, net, "host/0", route, false)
		_, p1 := testGateway(t, net, "host/1", route, false)
		const n = testPortDepth
		for k := 0; k < n; k++ {
			if err := p0["flow/0"].Send(seq("", "node/1", k)); err != nil {
				t.Fatal(err)
			}
			if k%3 == 2 { // cut a frame here, if the flusher has not already
				if err := g0.flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k, m := range recvN(t, p1["node/1"], n) {
			if m.From != "flow/0" || m.Payload[0] != byte(k) {
				t.Fatalf("message %d is %d from %s", k, m.Payload[0], m.From)
			}
		}
		if frames := g0.trafficNow().Frames; frames < n/3 {
			t.Errorf("%d frames: the sends were to span at least %d flushes", frames, n/3)
		}
	})

	t.Run("control sends flush inline, behind what was staged", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		_, cp := testGateway(t, net, ctrlHost, route, true)
		_, p1 := testGateway(t, net, "host/1", route, false)
		for k := 0; k < 3; k++ {
			if err := cp[ctrlName].stage(seq(ctrlName, "node/1", k)); err != nil {
				t.Fatal(err)
			}
		}
		if st := net.NetStats(); st.Delivered != 0 {
			t.Fatalf("staging alone put %d frames on the wire", st.Delivered)
		}
		if err := cp[ctrlName].Send(seq("", "node/1", 3)); err != nil {
			t.Fatal(err)
		}
		// Send has returned, so the frame has been handed to the network.
		if st := net.NetStats(); st.Delivered != 1 {
			t.Fatalf("%d frames delivered when the control send returned, want 1", st.Delivered)
		}
		for k, m := range recvN(t, p1["node/1"], 4) {
			if m.Payload[0] != byte(k) {
				t.Fatalf("message %d is %d", k, m.Payload[0])
			}
		}
		// And it reports what the transport said.
		net.SetPartition(ctrlHost, 9)
		if err := cp[ctrlName].Send(seq("", "node/1", 4)); !errors.Is(err, transport.ErrDropped) {
			t.Errorf("control send into a partition: %v, want ErrDropped", err)
		}
		net.Close()
		if err := cp[ctrlName].Send(seq("", "node/1", 5)); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("control send on a closed network: %v, want ErrClosed", err)
		}
	})

	t.Run("co-located sends stay off the wire", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := testGateway(t, net, "host/0", route, false)
		for k := 0; k < 3; k++ {
			if err := p0["flow/0"].Send(seq("", "node/0", k)); err != nil {
				t.Fatal(err)
			}
		}
		if got := drain(p0["node/0"]); len(got) != 3 || got[2].From != "flow/0" || got[2].Payload[0] != 2 {
			t.Errorf("node/0 received %v", got)
		}
		if st, tr := net.NetStats(), g0.trafficNow(); st != (transport.Stats{}) || tr.Frames != 0 || tr.Messages != 3 {
			t.Errorf("three co-located sends: network %+v, gateway %+v", st, tr)
		}
	})

	t.Run("a full inbox is counted", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := testGateway(t, net, "host/0", route, false)
		g1, p1 := testGateway(t, net, "host/1", route, false)
		for k := 0; k < testPortDepth+2; k++ { // nobody reads node/0 or node/1
			_ = p0["flow/0"].Send(seq("", "node/0", k))
		}
		var frame []transport.Message
		for k := 0; k < testPortDepth+3; k++ {
			frame = append(frame, seq("flow/0", "node/1", k))
		}
		g1.demux(encodeBatch(frame))
		if local, remote := g0.trafficNow().Dropped, g1.trafficNow().Dropped; local != 2 || remote != 3 {
			t.Errorf("dropped %d at the co-located port and %d at the remote one, want 2 and 3", local, remote)
		}
		if got := drain(p1["node/1"]); len(got) != testPortDepth || got[testPortDepth-1].Payload[0] != testPortDepth-1 {
			t.Errorf("node/1 holds %d messages, want the first %d", len(got), testPortDepth)
		}
	})

	t.Run("demux interns the envelope", func(t *testing.T) {
		net := transport.NewMemory()
		defer net.Close()
		g1, p1 := testGateway(t, net, "host/1", route, false)
		frame := encodeBatch([]transport.Message{seq("flow/0", "node/1", 0), seq("node/0", "flow/1", 1), seq("node/2", "flow/1", 2)})
		allocs := testing.AllocsPerRun(100, func() {
			g1.demux(frame)
			<-p1["node/1"].in
			<-p1["flow/1"].in
			<-p1["flow/1"].in
		})
		if allocs != 0 {
			t.Errorf("demux of known names allocates %.1f times a frame", allocs)
		}
		// A frame is outside input: garbage ends delivery, it does not panic.
		g1.demux(append(encodeBatch([]transport.Message{seq("nobody", "node/1", 7)}), 0xff, 0x01))
		if got := drain(p1["node/1"]); len(got) != 1 || got[0].From != "nobody" {
			t.Errorf("a frame with a trailing corrupt message delivered %v", got)
		}
	})

	t.Run("close flushes and leaves nothing running", func(t *testing.T) {
		before := runtime.NumGoroutine()
		net := transport.NewMemory()
		defer net.Close()
		g0, p0 := testGateway(t, net, "host/0", route, false)
		host1, err := net.Endpoint("host/1")
		if err != nil {
			t.Fatal(err)
		}
		g0.flushMu.Lock()
		closed := make(chan struct{})
		for k := 0; k < 3; k++ {
			if err := p0["node/0"].Send(seq("", "flow/1", k)); err != nil {
				t.Fatal(err)
			}
		}
		go func() { g0.close(); close(closed) }()
		g0.flushMu.Unlock()
		<-closed
		select {
		case frame := <-host1.Recv():
			if !reflect.DeepEqual([]byte(frame.Payload), encodeBatch([]transport.Message{seq("node/0", "flow/1", 0), seq("node/0", "flow/1", 1), seq("node/0", "flow/1", 2)})) {
				t.Errorf("the frame close flushed carries % x", frame.Payload)
			}
		default:
			t.Error("close returned before what was staged had been sent")
		}
		if err := p0["node/0"].Send(seq("", "flow/1", 3)); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("send after close: %v, want ErrClosed", err)
		}
		if _, ok := <-p0["node/0"].Recv(); ok {
			t.Error("port still open after close")
		}
		for deadline := time.Now().Add(30 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines before the gateway, %d after its close", before, runtime.NumGoroutine())
			}
		}
	})
}
