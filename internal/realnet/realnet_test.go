package realnet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"peerlab/internal/overlay"
	"peerlab/internal/pipe"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
)

// twoHosts builds two loopback hosts that know each other's addresses.
func twoHosts(t *testing.T) (*Host, *Host) {
	t.Helper()
	a, err := NewHost("alpha", "127.0.0.1:0", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHost("beta", "127.0.0.1:0", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.SetRoute("beta", b.AddrOf())
	b.SetRoute("alpha", a.AddrOf())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestDatagramRoundtrip(t *testing.T) {
	a, b := twoHosts(t)
	epA, err := a.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := epA.Send("beta/svc", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	msg, err := recvWithin(epB, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "over tcp" || msg.From != "alpha/svc" {
		t.Fatalf("msg = %+v", msg)
	}
}

func TestVirtualSizeCarried(t *testing.T) {
	a, b := twoHosts(t)
	epA, _ := a.Endpoint("svc")
	epB, _ := b.Endpoint("svc")
	if err := epA.SendFrame("beta/svc", []byte("hdr"), []byte("body"), 12345); err != nil {
		t.Fatal(err)
	}
	msg, err := recvWithin(epB, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Size != 12345 {
		t.Fatalf("size = %d", msg.Size)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	a, _ := twoHosts(t)
	ep, _ := a.Endpoint("svc")
	if err := ep.Send("gamma/svc", []byte("x")); !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestUnboundServiceSilentlyDropped(t *testing.T) {
	a, b := twoHosts(t)
	epA, _ := a.Endpoint("svc")
	if err := epA.Send("beta/ghost", []byte("x")); err != nil {
		t.Fatalf("datagram to unbound service must not error: %v", err)
	}
	_ = b
}

// recvWithin is Recv with a deadline, so a lost frame fails the test instead
// of hanging it.
func recvWithin(ep transport.Endpoint, d time.Duration) (transport.Message, error) {
	type result struct {
		msg transport.Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		msg, err := ep.Recv()
		got <- result{msg, err}
	}()
	select {
	case r := <-got:
		return r.msg, r.err
	case <-time.After(d):
		return transport.Message{}, fmt.Errorf("no message within %v", d)
	}
}

func TestQueueBasics(t *testing.T) {
	q := newQueue()
	q.Push(1)
	q.Push(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, _ := q.Pop()
	if v != 1 {
		t.Fatalf("Pop = %v", v)
	}
	q.Close()
	if _, err := q.Pop(); err != nil {
		t.Fatal("buffered value must drain after close")
	}
	if _, err := q.Pop(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := q.Push(3); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("push after close = %v", err)
	}
}

// TestOverlayOverTCP runs the full platform — broker, two clients, a real
// file transfer with checksum verification, a task round-trip — over
// loopback TCP.
func TestOverlayOverTCP(t *testing.T) {
	brokerHost, err := NewHost("nozomi", "127.0.0.1:0", nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	c1Host, err := NewHost("sc1", "127.0.0.1:0", nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	c2Host, err := NewHost("sc2", "127.0.0.1:0", nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brokerHost.Close(); c1Host.Close(); c2Host.Close() })
	for _, h := range []*Host{brokerHost, c1Host, c2Host} {
		h.SetRoute("nozomi", brokerHost.AddrOf())
		h.SetRoute("sc1", c1Host.AddrOf())
		h.SetRoute("sc2", c2Host.AddrOf())
	}

	if _, err := overlay.NewBroker(brokerHost, overlay.BrokerConfig{}); err != nil {
		t.Fatal(err)
	}
	gotFile := make(chan transfer.Received, 1)
	c2 := overlay.NewClient(c2Host, "nozomi/broker", overlay.ClientConfig{
		OnFile: func(rc transfer.Received) { gotFile <- rc },
	})
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	c1 := overlay.NewClient(c1Host, "nozomi/broker", overlay.ClientConfig{})
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}

	data := bytes.Repeat([]byte("integration"), 2000)
	var m transfer.Metrics
	if err := c1.Send("sc2", transfer.NewFile("real.bin", data), 3, &m); err != nil {
		t.Fatalf("Send over TCP: %v", err)
	}
	if m.TransmissionTime() <= 0 {
		t.Fatal("no transmission time measured")
	}
	select {
	case rc := <-gotFile:
		if !rc.Verified || !bytes.Equal(rc.File.Data, data) {
			t.Fatalf("file corrupted: verified=%v", rc.Verified)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("file never arrived")
	}

	res, err := c1.SubmitTask("sc2", task.Task{Name: "t", WorkUnits: 0.05})
	if err != nil {
		t.Fatalf("SubmitTask over TCP: %v", err)
	}
	if !res.OK || res.Peer != "sc2" {
		t.Fatalf("result = %+v", res)
	}

	if err := c1.SendInstant("sc2", "hello over tcp"); err != nil {
		t.Fatalf("SendInstant: %v", err)
	}
}

// TestSendToDownPeerIsReported: a peer in the route table whose host is down
// is not an unknown address. The dial fails, and the sender still reports the
// failed send, so the broker stops counting the peer as reliable.
func TestSendToDownPeerIsReported(t *testing.T) {
	var hosts []*Host
	for i, name := range []string{"nozomi", "sc1", "sc2"} {
		h, err := NewHost(name, "127.0.0.1:0", nil, int64(30+i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		hosts = append(hosts, h)
	}
	for _, h := range hosts {
		for _, o := range hosts {
			h.SetRoute(o.Name(), o.AddrOf())
		}
	}
	b, err := overlay.NewBroker(hosts[0], overlay.BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var c1 *overlay.Client
	for _, h := range hosts[1:] {
		c := overlay.NewClient(h, "nozomi/broker", overlay.ClientConfig{})
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if c1 == nil {
			c1 = c
		}
	}
	hosts[2].Close()

	err = c1.Send("sc2", transfer.NewFile("f.bin", []byte("down")), 1, new(transfer.Metrics))
	if err == nil || errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("send to a down peer: err = %v, want a failed dial", err)
	}
	for _, s := range b.Registry().Snapshots() {
		if s.Peer == "sc2" {
			if s.PctFileSentTotal != 0 || s.PctCancelTotal != 100 {
				t.Fatalf("sc2 sent %v%%, cancelled %v%%; want 0%% and 100%%", s.PctFileSentTotal, s.PctCancelTotal)
			}
			return
		}
	}
	t.Fatal("the broker holds no record for sc2")
}

// TestReturnRouteLearned: a host with no table entry for its caller must
// answer over the socket the request arrived on — cmd/broker serves peers
// this way, since operators give peers the broker's address but never give
// the broker a peer list. The peer here boots (one register frame carrying
// its stats) against a broker whose table is empty.
func TestReturnRouteLearned(t *testing.T) {
	brokerHost, err := NewHost("nozomi", "127.0.0.1:0", nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	defer brokerHost.Close()
	peerHost, err := NewHost("sc1", "127.0.0.1:0",
		map[string]string{"nozomi": brokerHost.AddrOf()}, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer peerHost.Close()
	b, err := overlay.NewBroker(brokerHost, overlay.BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := overlay.BootPeer(peerHost, "nozomi/broker", overlay.ClientConfig{CPUScore: 1})
	if err != nil {
		t.Fatalf("boot against route-less broker: %v", err)
	}
	defer c.Stop()
	if got := b.Peers(); len(got) != 1 || got[0] != "sc1" {
		t.Fatalf("broker peers = %v", got)
	}
	if s := b.Registry().Peer("sc1").Snapshot(); s.ReadyAt.IsZero() {
		t.Fatal("boot did not seed stats")
	}
	if got := b.ControlRPCs(); got != 1 {
		t.Fatalf("boot cost %d control RPCs, want 1", got)
	}
}

// TestReceiverOwnsPayloadOverTCP is the real-socket half of the send rule
// pipe relies on (transport.Message): one buffer, given up once, is sent on
// several conns at once, and every receiver gets its bytes while the buffer
// itself stays as it was sent. Over TCP each receiver's payload is read into
// a frame of its own, so one receiver's append reaches no other.
func TestReceiverOwnsPayloadOverTCP(t *testing.T) {
	a, b := twoHosts(t)
	epA, err := a.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	muxA, muxB := pipe.NewMux(a, epA, pipe.Options{}), pipe.NewMux(b, epB, pipe.Options{})
	t.Cleanup(func() { muxA.Close(); muxB.Close() })

	const conns, n, size = 3, 16, 256
	shared := bytes.Repeat([]byte{0x5A, 0xA5}, size/2)
	saved := bytes.Clone(shared)
	received := make(chan []pipe.Message, conns)
	for c := 0; c < conns; c++ {
		go func() {
			var got []pipe.Message
			defer func() { received <- got }()
			conn, err := muxB.Accept()
			if err != nil {
				return
			}
			for i := 0; i < n; i++ {
				conn.CloseAfter(10 * time.Second)
				m, err := conn.Recv()
				if err != nil {
					return
				}
				got = append(got, m)
			}
		}()
	}
	sent := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func() {
			conn, err := muxA.Dial("beta/pipe")
			for i := 0; i < n && err == nil; i++ {
				err = conn.Send(shared)
			}
			sent <- err
		}()
	}
	var all []pipe.Message
	for c := 0; c < conns; c++ {
		if err := <-sent; err != nil {
			t.Fatalf("Send: %v", err)
		}
		all = append(all, <-received...)
	}
	if len(all) != conns*n {
		t.Fatalf("received %d messages, want %d", len(all), conns*n)
	}
	for i, m := range all {
		if !bytes.Equal(m.Payload, saved) {
			t.Fatalf("message %d arrived as % x", i, m.Payload[:8])
		}
		_ = append(m.Payload, 0xEE)
	}
	for i, m := range all {
		if !bytes.Equal(m.Payload, saved) {
			t.Fatalf("an append to another message changed message %d", i)
		}
	}
	if !bytes.Equal(shared, saved) {
		t.Fatal("the sent buffer was written")
	}
}

// TestEndpointPayloadIsTheFramesOwn holds realnet to the frame it delivers:
// readLoop hands up head and body as aliases into the frame it read, not as
// copies, so every frame must be read into a buffer of its own — messages
// held together each read as sent — and the head must end where the body's
// field begins, so an append to the head cannot write the body.
func TestEndpointPayloadIsTheFramesOwn(t *testing.T) {
	a, b := twoHosts(t)
	epA, err := a.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	const n, size = 16, 512
	head := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8) }
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(0x80 + i)}, size) }
	for i := 0; i < n; i++ {
		if err := epA.SendFrame("beta/svc", head(i), body(i), 0); err != nil {
			t.Fatalf("SendFrame %d: %v", i, err)
		}
	}
	var held []transport.Message
	for i := 0; i < n; i++ {
		m, err := recvWithin(epB, 10*time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		held = append(held, m)
	}
	for i, m := range held {
		if !bytes.Equal(m.Payload, head(i)) || !bytes.Equal(m.Body, body(i)) || m.Size != 8+size {
			t.Fatalf("message %d arrived as head % x, body % x..., size %d", i, m.Payload, m.Body[:8], m.Size)
		}
		_ = append(m.Payload, bytes.Repeat([]byte{0xEE}, 16)...)
		if !bytes.Equal(m.Body, body(i)) {
			t.Fatalf("an append to message %d's head wrote its body", i)
		}
	}
}

// TestSenderMayReuseItsHead sends every frame from one head buffer, which the
// sender overwrites as soon as SendFrame returns, with bodies of their own.
// A served receiver reads each head as sent inside its callback, and the
// bodies it kept read as sent at the end.
func TestSenderMayReuseItsHead(t *testing.T) {
	a, b := twoHosts(t)
	epA, err := a.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 64
	type read struct {
		head byte
		body []byte
	}
	got := make(chan read, frames)
	epB.Serve(func(m transport.Message) { got <- read{m.Payload[0], m.Body} })
	head := make([]byte, 1)
	for i := 0; i < frames; i++ {
		head[0] = byte(i)
		if err := epA.SendFrame("beta/svc", head, []byte{byte(i), 0xB0}, 0); err != nil {
			t.Fatalf("SendFrame %d: %v", i, err)
		}
		head[0] = 0xFF
	}
	var kept []read
	for i := 0; i < frames; i++ {
		select {
		case r := <-got:
			kept = append(kept, r)
		case <-time.After(10 * time.Second):
			t.Fatalf("served %d of %d frames", i, frames)
		}
	}
	for i, r := range kept {
		if r.head != byte(i) || !bytes.Equal(r.body, []byte{byte(i), 0xB0}) {
			t.Fatalf("frame %d read head %x, body % x: not as sent", i, r.head, r.body)
		}
	}
}

// TestSendRacesClose: Close marks an endpoint closed while another goroutine
// sends on it. Run under -race, the check SendFrame makes of that mark must
// not race the write.
func TestSendRacesClose(t *testing.T) {
	a, b := twoHosts(t)
	epA, err := a.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Endpoint("svc"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for {
			if err := epA.Send("beta/svc", []byte("x")); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(time.Millisecond)
	epA.Close()
	if err := <-done; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

// TestPoppedValueIsCollectable pops the first of two values: the queue,
// still holding the second, must not keep the first reachable through its
// backing array.
func TestPoppedValueIsCollectable(t *testing.T) {
	q := newQueue()
	first := new([64]byte)
	gone := weak.Make(first)
	q.Push(first)
	q.Push(new([64]byte))
	v, err := q.Pop()
	if err != nil || v != any(first) {
		t.Fatalf("popped %v, %v", v, err)
	}
	v, first = nil, nil
	runtime.GC()
	if gone.Value() != nil {
		t.Error("a popped value stays reachable through the queue")
	}
	if q.Len() != 1 {
		t.Fatalf("%d values left, want 1", q.Len())
	}
}
