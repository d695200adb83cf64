package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime/metrics"
	"syscall"
	"testing"
	"testing/iotest"
	"time"

	iccmetrics "icc/internal/metrics"
	"icc/internal/types"
)

// framePayload is the payload of frame seq from sender: its length is
// log-uniform in [1 B, 200 KiB], so sizes straddle burstCap and
// readBufSize, and its bytes follow from (sender, seq) alone.
func framePayload(sender types.PartyID, seq int) []byte {
	rng := rand.New(rand.NewSource(int64(sender)<<32 | int64(seq)))
	n := int(math.Exp(rng.Float64() * math.Log(200<<10)))
	if n < 1 {
		n = 1
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestTCPBurstsArriveIntactAndInOrder has two senders enqueue thousands
// of frames of random sizes as fast as Send takes them, so writers
// gather bursts of every shape: each frame must arrive byte-exact and in
// order per sender, and the writes must number fewer than the frames.
func TestTCPBurstsArriveIntactAndInOrder(t *testing.T) {
	const count = 1500
	addrs := map[types.PartyID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	stats := iccmetrics.NewTransportStats()
	eps := make([]*TCP, 3)
	for i := range eps {
		ep, err := NewTCPWithOptions(types.PartyID(i), addrs, TCPOptions{SendQueue: count, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	for _, ep := range eps[:2] {
		ep.SetPeerAddr(2, eps[2].Addr())
	}
	for s := 0; s < 2; s++ {
		go func(sender types.PartyID) {
			for seq := 0; seq < count; seq++ {
				blk := &types.Block{Round: types.Round(seq + 1), Proposer: sender, Payload: framePayload(sender, seq)}
				if err := eps[sender].Send(2, &types.BlockMsg{Block: blk}); err != nil {
					return
				}
			}
		}(types.PartyID(s))
	}

	next := [2]int{}
	deadline := time.After(60 * time.Second)
	for got := 0; got < 2*count; got++ {
		var env Envelope
		select {
		case env = <-eps[2].Inbox():
		case <-deadline:
			t.Fatalf("received %d of %d frames (next per sender %v)", got, 2*count, next)
		}
		blk := env.Msg.(*types.BlockMsg).Block
		seq := next[env.From]
		if int(blk.Round) != seq+1 || blk.Proposer != env.From {
			t.Fatalf("from %d: got round %d, want %d", env.From, blk.Round, seq+1)
		}
		if !bytes.Equal(blk.Payload, framePayload(env.From, seq)) {
			t.Fatalf("from %d: frame %d (%d bytes) corrupted", env.From, seq, len(blk.Payload))
		}
		next[env.From]++
	}

	// A frame is counted once the Write carrying it returns, which may
	// be just after the receiver has it.
	for end := time.Now().Add(5 * time.Second); stats.Detail().FramesWritten < 2*count && time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
	}
	snap := stats.Detail()
	if snap.FramesWritten != 2*count || snap.SocketWrites >= snap.FramesWritten {
		t.Fatalf("%d frames in %d socket writes; want %d frames in fewer writes", snap.FramesWritten, snap.SocketWrites, 2*count)
	}
}

// TestTCPBurstRetriedOnFreshConnection resets the connection while the
// writer is blocked in the middle of a burst, with the peer's listener
// down so the redial has to wait for it to come back. The frames that
// were written before the reset are lost with it; every frame of the
// failed burst, and every frame after it, must arrive once and in order
// on the fresh connection.
func TestTCPBurstRetriedOnFreshConnection(t *testing.T) {
	// A small receive buffer, inherited by accepted connections, makes
	// the writer block long before the frames run out.
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 16<<10)
		}); err != nil {
			return err
		}
		return serr
	}}
	lis, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()

	const count = 256
	stats := iccmetrics.NewTransportStats()
	a, err := NewTCPWithOptions(0, map[types.PartyID]string{0: "127.0.0.1:0", 1: addr}, TCPOptions{
		Stats:     stats,
		RedialMin: 10 * time.Millisecond,
		RedialMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	frame := func(seq int) *types.BlockMsg {
		return &types.BlockMsg{Block: &types.Block{Round: types.Round(seq + 1), Payload: make([]byte, 64<<10)}}
	}
	for seq := 0; seq < count; seq++ {
		if err := a.Send(1, frame(seq)); err != nil {
			t.Fatal(err)
		}
	}

	// accept takes the next connection and checks its handshake.
	accept := func(l net.Listener) (*net.TCPConn, io.Reader) {
		t.Helper()
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if from, err := readHello(c); err != nil || from != 0 {
			t.Fatalf("handshake: from %d, %v", from, err)
		}
		return c.(*net.TCPConn), c
	}
	c1, r1 := accept(lis)
	for seq := 0; seq < 3; seq++ {
		if _, err := readFrame(r1); err != nil {
			t.Fatalf("frame %d on the first connection: %v", seq, err)
		}
	}
	time.Sleep(100 * time.Millisecond) // let the writer block on a full window
	if snap := stats.Detail(); snap.FramesWritten >= count {
		t.Fatalf("all %d frames written before the reset; the writer never blocked", snap.FramesWritten)
	}

	// Restart: listener down, connection reset.
	_ = lis.Close()
	_ = c1.SetLinger(0)
	_ = c1.Close()
	for end := time.Now().Add(5 * time.Second); stats.Detail().TotalWriteErrors == 0; {
		if time.Now().After(end) {
			t.Fatal("the reset never failed a write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With no listener the writer is redialling, so nothing more can be
	// written: the frames before `first` went out on the dead connection.
	first := int(stats.Detail().FramesWritten)

	var lis2 net.Listener
	for i := 0; i < 50; i++ { // the port may linger briefly
		if lis2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	defer lis2.Close()
	c2, r2 := accept(lis2)
	defer c2.Close()
	for seq := first; seq < count; seq++ {
		raw, err := readFrame(r2)
		if err != nil {
			t.Fatalf("frame %d on the fresh connection: %v", seq, err)
		}
		if !bytes.Equal(raw, types.Marshal(frame(seq))) {
			m, _ := types.Unmarshal(raw)
			t.Fatalf("fresh connection: want frame %d, got %#v", seq, m)
		}
	}
	_ = c2.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if raw, err := readFrame(r2); err == nil {
		m, _ := types.Unmarshal(raw)
		t.Fatalf("frame after the last one sent: %#v", m)
	}
}

// writeFrameInTwoWrites and readFrameUnbuffered are the framing as it
// was before bursts: two writes and two unbuffered reads per frame.
func writeFrameInTwoWrites(w io.Writer, payload []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrameUnbuffered(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// TestTCPWireFormatUnchanged holds bursts to the old framing in both
// directions: a peer writing frame by frame in two writes each is read
// by the endpoint, and a burst the endpoint writes is read frame by frame
// with unbuffered reads, byte for byte.
func TestTCPWireFormatUnchanged(t *testing.T) {
	msgs := []types.Message{
		&types.Advert{},
		&types.BeaconShare{Round: 4, Signer: 0, Share: bytes.Repeat([]byte{7}, 380)},
		&types.BlockMsg{Block: &types.Block{Round: 9, Payload: bytes.Repeat([]byte{1}, 70<<10)}},
		&types.Notarization{Round: 9, Proposer: 2, Agg: []byte("agg")},
	}

	// Old writer, new reader.
	_, b := tcpPair(t)
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hello [8]byte
	if err := writeFrameInTwoWrites(c, hello[:]); err != nil { // party 0
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := writeFrameInTwoWrites(c, types.Marshal(m)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		env := recvOne(t, b, 5*time.Second)
		if env.From != 0 || !bytes.Equal(types.Marshal(env.Msg), types.Marshal(want)) {
			t.Fatalf("message %d: from %d, got %#v", i, env.From, env.Msg)
		}
	}

	// New writer, old reader.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	a, err := NewTCP(0, map[types.PartyID]string{0: "127.0.0.1:0", 1: lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, m := range msgs {
		if err := a.Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := readFrameUnbuffered(conn); err != nil || !bytes.Equal(got, hello[:]) {
		t.Fatalf("handshake %x, %v", got, err)
	}
	for i, m := range msgs {
		got, err := readFrameUnbuffered(conn)
		if err != nil || !bytes.Equal(got, types.Marshal(m)) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(got), err)
		}
	}
}

// TestReadFrameShortReads reads frames through a reader that returns one
// byte at a time, and through a stream that stops inside a header and
// inside a payload.
func TestReadFrameShortReads(t *testing.T) {
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{2}, 300), bytes.Repeat([]byte{3}, readBufSize+1)}
	var stream []byte
	for _, p := range payloads {
		stream = appendFrame(stream, p)
	}
	r := iotest.OneByteReader(bytes.NewReader(stream))
	for i, want := range payloads {
		got, err := readFrame(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d over one-byte reads: %d bytes, %v", i, len(got), err)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}

	last := appendFrame(nil, payloads[2])
	for _, cut := range []int{2, 4 + len(payloads[2])/2} {
		if _, err := readFrame(bytes.NewReader(last[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut at byte %d: %v, want unexpected EOF", cut, err)
		}
	}
}

// TestHandshakeBounded checks both limits on the hello: a header
// claiming 64 MiB is refused at once, before the read deadline, and a
// connection that never speaks is closed when the deadline passes.
func TestHandshakeBounded(t *testing.T) {
	const deadline = 300 * time.Millisecond
	b, err := NewTCPWithOptions(1, map[types.PartyID]string{0: "127.0.0.1:1", 1: "127.0.0.1:0"}, TCPOptions{DialTimeout: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// closedWithin reports how long the endpoint took to close c.
	closedWithin := func(c net.Conn) time.Duration {
		t.Helper()
		start := time.Now()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(make([]byte, 1)); n > 0 || err == nil {
			t.Fatal("connection delivered data")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("connection never closed")
		}
		return time.Since(start)
	}

	big, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	if _, err := big.Write(binary.BigEndian.AppendUint32(nil, maxFrame)); err != nil {
		t.Fatal(err)
	}
	if took := closedWithin(big); took >= deadline {
		t.Fatalf("64 MiB hello header closed after %v, not at once", took)
	}

	silent, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if took := closedWithin(silent); took < deadline/2 {
		t.Fatalf("silent connection closed after %v, before the deadline", took)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// heapAllocated is the bytes this process has allocated on the heap so
// far; unlike runtime.ReadMemStats it does not stop the world.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzReadFrame reads arbitrary bytes as a frame stream: readFrame must
// never panic, never allocate past maxFrame, and refuse an oversized
// header having read nothing past it. The same bytes, cut into payloads
// and framed by appendFrame, must read back exactly, through short
// reads.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(appendFrame(nil, []byte("hello")), nil))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 3), 1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		var promised uint64 // the lengths of the headers readFrame accepted
		before := heapAllocated()
		for {
			start := cr.n
			raw, err := readFrame(cr)
			if cr.n-start >= 4 {
				if n := binary.BigEndian.Uint32(data[start:]); n <= maxFrame {
					promised += uint64(n)
				} else if err == nil || cr.n-start != 4 {
					t.Fatalf("a %d-byte header was not refused on its own 4 bytes", n)
				}
			}
			if err != nil {
				break
			}
			if len(raw) > maxFrame {
				t.Fatalf("frame of %d bytes", len(raw))
			}
		}
		if grew := heapAllocated() - before; grew > promised+1<<20 {
			t.Fatalf("read allocated %d bytes for headers promising %d", grew, promised)
		}

		// Each byte of data, taken in turn, sets the length of the next
		// payload, which is cut from the bytes after it.
		var payloads [][]byte
		var stream []byte
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]), len(rest)-1)
			payloads = append(payloads, rest[1:1+n])
			stream = appendFrame(stream, rest[1:1+n])
			rest = rest[1+n:]
		}
		r := iotest.HalfReader(bytes.NewReader(stream))
		for i, want := range payloads {
			got, err := readFrame(r)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("payload %d: got %x, %v; want %x", i, got, err, want)
			}
		}
		if _, err := readFrame(r); err != io.EOF {
			t.Fatalf("after the last payload: %v, want EOF", err)
		}
	})
}

// BenchmarkTCPBurst sends eight ~400-byte frames, the shape of a share
// bundle, over a loopback pair and waits for all eight to arrive.
func BenchmarkTCPBurst(b *testing.B) {
	const burst = 8
	a, c := tcpPair(b)
	msg := &types.BeaconShare{Round: 1, Signer: 0, Share: make([]byte, 380)}
	if err := a.Send(1, msg); err != nil { // connect before the clock starts
		b.Fatal(err)
	}
	<-c.Inbox()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := a.Send(1, msg); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < burst; j++ {
			<-c.Inbox()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/frame")
}
