package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"icc/internal/metrics"
	"icc/internal/obs"
	"icc/internal/types"
)

// newStats is a transport counter set on a registry of its own, and a
// reader of that registry's keys.
func newStats() (*metrics.TransportStats, func(key string) int64) {
	reg := obs.NewRegistry()
	return metrics.NewTransportStatsOn(reg, nil), func(key string) int64 { return int64(reg.Snapshot().Get(key)) }
}

// TestSlowReaderDoesNotBlockOtherPeers is the regression test for the
// pre-queue design, where one stuck peer stalled every send: party 0
// talks to a healthy peer (1) and a black-hole peer (2) that accepts
// connections but never reads. The healthy peer must receive all its
// traffic promptly while the black-hole peer's writer is wedged.
func TestSlowReaderDoesNotBlockOtherPeers(t *testing.T) {
	stats, counter := newStats()
	slowLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slowLis.Close()
	go func() {
		for {
			c, err := slowLis.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and never read
		}
	}()

	bootstrap := map[types.PartyID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: slowLis.Addr().String()}
	a, err := NewTCPWithOptions(0, bootstrap, TCPOptions{
		sendQueue:    8,
		writeTimeout: 300 * time.Millisecond,
		Stats:        stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(1, map[types.PartyID]string{0: a.Addr(), 1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(1, b.Addr())

	// Phase 1: wedge the slow peer — big frames until kernel socket
	// buffers fill and its writer blocks on the write deadline. Every
	// Send must still return near-instantly (the non-blocking guarantee
	// the runner's event loop depends on), with the bounded queue
	// evicting stale frames instead of buffering 50 MiB.
	const count = 100
	bigPayload := make([]byte, 512<<10)
	start := time.Now()
	for i := 0; i < count; i++ {
		if err := a.Send(2, &types.BlockMsg{Block: &types.Block{Round: types.Round(i + 1), Payload: bigPayload}}); err != nil {
			t.Fatalf("send to slow peer: %v", err)
		}
	}
	if enqueueTime := time.Since(start); enqueueTime > 2*time.Second {
		t.Fatalf("enqueueing took %v; Send is blocking on the slow peer", enqueueTime)
	}
	if counter(`icc_transport_queue_dropped_total{peer="2"}`) == 0 {
		t.Fatal("expected drop-oldest evictions for the wedged peer")
	}

	// Phase 2: with the slow peer's writer wedged, traffic to the
	// healthy peer must flow unimpeded.
	go func() {
		for i := 0; i < count; i++ {
			_ = a.Send(1, &types.BeaconShare{Round: types.Round(i + 1), Signer: 0, Share: []byte{byte(i)}})
			time.Sleep(time.Millisecond) // pace below the writer's drain rate
		}
	}()
	got := 0
	deadline := time.After(15 * time.Second)
	for got < count {
		select {
		case _, ok := <-b.Inbox():
			if !ok {
				t.Fatal("healthy inbox closed early")
			}
			got++
		case <-deadline:
			t.Fatalf("healthy peer received %d of %d while slow peer was wedged", got, count)
		}
	}
}

// TestFrameSizeLimits exercises the framing boundary in both
// directions: exactly maxFrame round-trips, one byte more is refused on
// read before any allocation, and Send refuses messages that could
// never be accepted remotely.
func TestFrameSizeLimits(t *testing.T) {
	// A frame of exactly maxFrame is legal.
	cr, cw := net.Pipe()
	defer cr.Close()
	defer cw.Close()
	payload := make([]byte, maxFrame)
	payload[0], payload[maxFrame-1] = 0xAB, 0xCD
	errc := make(chan error, 1)
	go func() {
		_, err := cw.Write(appendFrame(nil, payload))
		errc <- err
	}()
	got, err := readFrame(cr)
	if err != nil {
		t.Fatalf("read of maxFrame-sized frame: %v", err)
	}
	if werr := <-errc; werr != nil {
		t.Fatalf("write of maxFrame-sized frame: %v", werr)
	}
	if len(got) != maxFrame || got[0] != 0xAB || got[maxFrame-1] != 0xCD {
		t.Fatal("maxFrame-sized frame corrupted")
	}

	// A header claiming maxFrame+1 is rejected without reading further.
	r2, w2 := net.Pipe()
	defer r2.Close()
	defer w2.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		_, _ = w2.Write(hdr[:])
	}()
	if _, err := readFrame(r2); err == nil {
		t.Fatal("oversized frame header accepted")
	}

	// Send refuses a message whose encoding exceeds the frame limit.
	a, _ := tcpPair(t)
	huge := &types.BlockMsg{Block: &types.Block{Round: 1, Payload: make([]byte, maxFrame)}}
	if err := a.Send(1, huge); err == nil {
		t.Fatal("oversized message accepted for send")
	}
}

// TestHandshakeRejectsUnknownParty connects raw sockets that handshake
// as a party outside the cluster (and with a malformed hello) and
// checks the transport closes them without delivering anything.
func TestHandshakeRejectsUnknownParty(t *testing.T) {
	a, b := tcpPair(t)
	_ = a

	dialRaw := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// The transport may close with unread data pending, which surfaces
	// as ECONNRESET rather than a clean EOF — both mean "rejected".
	expectClosed := func(c net.Conn) {
		t.Helper()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := c.Read(make([]byte, 1))
		if err == nil || n > 0 {
			t.Fatal("rejected connection still delivered data")
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("transport did not close the rejected connection")
		}
	}

	// Unknown party ID 99.
	c1 := dialRaw()
	defer c1.Close()
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], 99)
	if _, err := c1.Write(appendFrame(appendFrame(nil, hello[:]), types.Marshal(&types.Advert{}))); err != nil {
		t.Fatal(err)
	}
	expectClosed(c1)

	// Garbage handshake (wrong length).
	c2 := dialRaw()
	defer c2.Close()
	if _, err := c2.Write(appendFrame(nil, []byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	expectClosed(c2)

	// A peer claiming to be the receiver itself is also rejected.
	c3 := dialRaw()
	defer c3.Close()
	binary.BigEndian.PutUint64(hello[:], 1) // b's own ID
	if _, err := c3.Write(appendFrame(nil, hello[:])); err != nil {
		t.Fatal(err)
	}
	expectClosed(c3)

	select {
	case env := <-b.Inbox():
		t.Fatalf("message delivered from rejected connection: %#v", env)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestConcurrentCloseAndSend hammers Send from several goroutines while
// Close runs; run with -race. Sends must either succeed or return
// ErrClosed — never panic or hang.
func TestConcurrentCloseAndSend(t *testing.T) {
	a, b := tcpPair(t)
	_ = b
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				_ = a.Send(1, &types.Advert{})
			}
		}()
	}
	close(start)
	time.Sleep(time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatalf("close during sends: %v", err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("senders hung across Close")
	}
	if err := a.Send(1, &types.Advert{}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestInprocInboxOverflowCounted fills an inproc inbox past capacity and
// checks the discards are counted rather than silently dropped.
func TestInprocInboxOverflowCounted(t *testing.T) {
	stats, counter := newStats()
	hub := NewInproc(2)
	defer hub.Close()
	hub.SetStats(stats)
	ep := hub.Endpoint(0)
	const extra = 7
	for i := 0; i < inboxSize+extra; i++ {
		if err := ep.Send(1, &types.Advert{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter("icc_transport_inbox_overflow_total"); got != extra {
		t.Fatalf("inbox overflow count = %d, want %d", got, extra)
	}
}
