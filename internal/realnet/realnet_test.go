package realnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

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
	msg, err := epB.RecvTimeout(5 * time.Second)
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
	if err := epA.SendSized("beta/svc", []byte("hdr"), 12345); err != nil {
		t.Fatal(err)
	}
	msg, err := epB.RecvTimeout(5 * time.Second)
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

func TestRecvTimeout(t *testing.T) {
	a, _ := twoHosts(t)
	ep, _ := a.Endpoint("svc")
	start := time.Now()
	_, err := ep.RecvTimeout(50 * time.Millisecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("timeout returned too early")
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
	if _, err := q.PopTimeout(10 * time.Millisecond); err != nil {
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
	m, err := c1.SendFile("sc2", transfer.NewFile("real.bin", data), 3)
	if err != nil {
		t.Fatalf("SendFile over TCP: %v", err)
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

// TestReceiverOwnsPayloadOverTCP is the real-socket half of the buffer rule
// pipe relies on (transport.Message): once Conn.Send has returned, the
// sender may scribble over its buffer, and the messages the receiver holds
// are untouched — here because every frame is read off the socket into a
// buffer of its own.
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

	const n, size = 32, 256
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size) }
	received := make(chan []pipe.Message, 1)
	go func() {
		var got []pipe.Message
		defer func() { received <- got }()
		conn, err := muxB.Accept()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			m, err := conn.RecvTimeout(10 * time.Second)
			if err != nil {
				return
			}
			got = append(got, m)
		}
	}()
	conn, err := muxA.Dial("beta/pipe")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		copy(buf, want(i))
		if err := conn.Send(buf); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		for j := range buf {
			buf[j] = 0xEE
		}
	}
	got := <-received
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, m := range got {
		if !bytes.Equal(m.Payload, want(i)) {
			t.Fatalf("message %d corrupted after the sender reused its buffer: % x", i, m.Payload[:8])
		}
	}
}

// TestEndpointPayloadIsTheFramesOwn holds the transport to the receiver-owns
// rule below the pipe: readLoop hands up an alias into the frame it read,
// not a copy, so every delivered Payload must come from a frame of its own —
// messages held together share no bytes, none changes when the receiver
// writes another, and none changes when the sender reuses its buffer.
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
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size) }
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		copy(buf, want(i))
		if err := epA.Send("beta/svc", buf); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		for j := range buf {
			buf[j] = 0xEE
		}
	}
	var held [][]byte
	for i := 0; i < n; i++ {
		m, err := epB.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		held = append(held, m.Payload)
	}
	for i, p := range held {
		if !bytes.Equal(p, want(i)) {
			t.Fatalf("message %d arrived as % x", i, p[:8])
		}
		for j := range p { // the receiver owns it: writing one must reach no other
			p[j] = 0
		}
		for k := i + 1; k < n; k++ {
			if !bytes.Equal(held[k], want(k)) {
				t.Fatalf("writing message %d's payload changed message %d's", i, k)
			}
		}
	}
}
