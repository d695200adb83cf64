package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"icc/internal/metrics"
	"icc/internal/types"
)

// TCP is a transport over TCP connections with length-prefixed frames.
// Each node listens on its own address; connections self-identify with a
// one-frame handshake carrying the sender's party ID, and handshakes
// naming a party outside the cluster are rejected.
//
// Send is a non-blocking enqueue: every peer has a bounded send queue
// drained by a dedicated writer goroutine, so a dead, unreachable, or
// slow peer can never stall the caller (the runner's consensus event
// loop in particular). The writer dials in the background and, on dial
// or write failure, redials under exponential backoff with jitter;
// writes carry a deadline so a stuck connection is detected and torn
// down. The writer coalesces whatever is already queued into one burst
// and one Write; the reader reads through a buffer, so a burst costs one
// syscall on each side. When a queue overflows, the oldest frame is
// evicted — stale consensus messages are exactly the ones worth losing,
// and the protocol's echo/catch-up paths retransmit what still matters.
// Queue evictions, redials, write failures, inbox-overflow discards, and
// socket writes against the frames they carried are counted in an
// optional metrics.TransportStats.
//
// Frames: u32 payload length, then the payload (a types.Marshal
// encoding). The handshake frame carries the 8-byte party ID; a
// connection must send it within 3 s of being accepted.
type TCP struct {
	self types.PartyID
	opts TCPOptions

	lis   net.Listener
	inbox chan Envelope
	stats *metrics.TransportStats

	mu      sync.Mutex
	addrs   map[types.PartyID]string
	peers   map[types.PartyID]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool

	done chan struct{} // closed on Close; unblocks writers and backoff sleeps
	wg   sync.WaitGroup
}

// TCPOptions tunes a TCP endpoint. Zero values select the defaults.
type TCPOptions struct {
	// RedialMax caps the exponential redial backoff, which starts at
	// 50 ms (default 5s). Jitter in [1x, 2x) is added to each wait.
	RedialMax time.Duration
	// Stats, if non-nil, receives transport-health counters.
	Stats *metrics.TransportStats

	// sendQueue is the per-peer send-queue capacity; dialTimeout bounds
	// one dial attempt, and how long an accepted connection may take to
	// send its handshake; writeTimeout is the write deadline of one burst
	// of frames; redialMin is the first redial backoff. withDefaults sets
	// them to 1024, 3 s, 10 s and 50 ms; tests in this package lower
	// them.
	sendQueue    int
	dialTimeout  time.Duration
	writeTimeout time.Duration
	redialMin    time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.sendQueue <= 0 {
		o.sendQueue = 1024
	}
	if o.dialTimeout <= 0 {
		o.dialTimeout = 3 * time.Second
	}
	if o.writeTimeout <= 0 {
		o.writeTimeout = 10 * time.Second
	}
	if o.redialMin <= 0 {
		o.redialMin = 50 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 5 * time.Second
	}
	return o
}

// tcpPeer is the send side of one peer link: a bounded frame queue and
// the connection currently owned by its writer goroutine.
type tcpPeer struct {
	id    types.PartyID
	queue chan []byte

	mu   sync.Mutex
	conn net.Conn // writer-owned; Close() also closes it to unblock writes
}

func (p *tcpPeer) setConn(c net.Conn) {
	p.mu.Lock()
	p.conn = c
	p.mu.Unlock()
}

func (p *tcpPeer) closeConn() {
	p.mu.Lock()
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.mu.Unlock()
}

// maxFrame bounds a frame in either direction (64 MiB).
const maxFrame = 64 << 20

// burstCap is how many bytes a writer gathers into one Write before it
// stops draining its queue: it stops at the first frame that takes the
// burst to burstCap or past it. readBufSize is each inbound
// connection's read buffer.
const (
	burstCap    = 64 << 10
	readBufSize = 64 << 10
)

// NewTCP starts a TCP endpoint with default options: it listens on
// addrs[self] immediately and dials peers in the background as traffic
// for them is enqueued.
func NewTCP(self types.PartyID, addrs map[types.PartyID]string) (*TCP, error) {
	return NewTCPWithOptions(self, addrs, TCPOptions{})
}

// NewTCPWithOptions starts a TCP endpoint with explicit options.
func NewTCPWithOptions(self types.PartyID, addrs map[types.PartyID]string, opts TCPOptions) (*TCP, error) {
	opts = opts.withDefaults()
	lis, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[self], err)
	}
	addrCopy := make(map[types.PartyID]string, len(addrs))
	for p, a := range addrs {
		addrCopy[p] = a
	}
	t := &TCP{
		self:    self,
		opts:    opts,
		lis:     lis,
		inbox:   make(chan Envelope, inboxSize),
		stats:   opts.Stats,
		addrs:   addrCopy,
		peers:   make(map[types.PartyID]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0").
func (t *TCP) Addr() string { return t.lis.Addr().String() }

// SetPeerAddr updates (or adds) a peer's dial address — needed when a
// cluster is assembled from ephemeral ":0" listeners whose real ports
// are only known after creation. Existing connections are unaffected;
// the next redial uses the new address.
func (t *TCP) SetPeerAddr(p types.PartyID, addr string) {
	t.mu.Lock()
	t.addrs[p] = addr
	t.mu.Unlock()
}

// Inbox implements Endpoint.
func (t *TCP) Inbox() <-chan Envelope { return t.inbox }

// Send implements Endpoint. It never blocks: the frame is enqueued on
// the peer's send queue (evicting the oldest frame on overflow) and
// written by the peer's writer goroutine. An error means the message
// was not accepted at all: unknown destination, oversized frame, or
// closed endpoint.
func (t *TCP) Send(to types.PartyID, m types.Message) error {
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	raw := types.Marshal(m)
	if len(raw) > maxFrame {
		return fmt.Errorf("transport: %d-byte message to %d exceeds the %d-byte frame limit", len(raw), to, maxFrame)
	}
	for {
		select {
		case p.queue <- raw:
			t.stats.ObserveQueueDepth(to, len(p.queue))
			return nil
		default:
		}
		// Queue full: evict the oldest frame and retry, so the queue
		// always holds the freshest traffic for this peer.
		select {
		case <-p.queue:
			t.stats.QueueDrop(to)
		default:
		}
	}
}

// Close implements Endpoint.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()

	close(t.done)
	err := t.lis.Close()
	for _, p := range peers {
		p.closeConn() // unblock any in-flight write immediately
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	t.wg.Wait()
	close(t.inbox)
	return err
}

// peer returns (or creates, spawning its writer) the send side for a
// destination.
func (t *TCP) peer(to types.PartyID) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if p, ok := t.peers[to]; ok {
		return p, nil
	}
	if _, ok := t.addrs[to]; !ok {
		return nil, fmt.Errorf("transport: no address for party %d", to)
	}
	p := &tcpPeer{id: to, queue: make(chan []byte, t.opts.sendQueue)}
	t.peers[to] = p
	t.wg.Add(1)
	go t.writeLoop(p)
	return p, nil
}

// writeLoop drains one peer's send queue, dialling and redialling in the
// background. It waits for one frame, then takes without waiting every
// frame already queued behind it, up to burstCap, and writes them as one
// burst: no timer holds a frame back, so a lone frame leaves at once. A
// burst that fails to write is retried whole on a fresh connection;
// while the peer stays unreachable, the queue's drop-oldest policy
// bounds memory and keeps the backlog fresh.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	defer p.closeConn()
	var conn net.Conn
	var burst []byte // reused across bursts
	backoff := t.opts.redialMin
	// Jitter stream: seeded per link so concurrent writers never share
	// rng state; determinism is not needed for backoff spacing.
	rng := rand.New(rand.NewSource(int64(t.self)<<32 ^ int64(p.id)<<8 ^ time.Now().UnixNano()))
	for {
		var raw []byte
		select {
		case <-t.done:
			return
		case raw = <-p.queue:
		}
		burst = appendFrame(burst[:0], raw)
		frames := 1
	gather:
		for len(burst) < burstCap {
			select {
			case raw = <-p.queue:
				burst = appendFrame(burst, raw)
				frames++
			default:
				break gather
			}
		}
		for {
			if conn == nil {
				c, err := t.dial(p.id)
				if err != nil {
					// Exponential backoff with jitter in [backoff, 2*backoff).
					wait := backoff + time.Duration(rng.Int63n(int64(backoff)))
					if !t.pause(wait) {
						return
					}
					backoff *= 2
					if backoff > t.opts.RedialMax {
						backoff = t.opts.RedialMax
					}
					continue
				}
				conn = c
				p.setConn(c)
				backoff = t.opts.redialMin
			}
			_ = conn.SetWriteDeadline(time.Now().Add(t.opts.writeTimeout))
			if _, err := conn.Write(burst); err != nil {
				t.stats.WriteError(p.id)
				_ = conn.Close()
				conn = nil
				p.setConn(nil)
				select {
				case <-t.done:
					return
				default:
				}
				continue // retry this burst on a fresh connection
			}
			t.stats.BurstWritten(frames)
			break
		}
		if cap(burst) > 2*burstCap {
			burst = nil // a large frame does not pin its buffer
		}
	}
}

// pause sleeps for d unless the endpoint closes first.
func (t *TCP) pause(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.done:
		return false
	case <-timer.C:
		return true
	}
}

// dial establishes and handshakes one outgoing connection.
func (t *TCP) dial(to types.PartyID) (net.Conn, error) {
	t.mu.Lock()
	addr, ok := t.addrs[to]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("transport: no address for party %d", to)
	}
	t.stats.Redial(to)
	c, err := net.DialTimeout("tcp", addr, t.opts.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %d: %w", to, err)
	}
	// Handshake: identify ourselves.
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], uint64(int64(t.self)))
	_ = c.SetWriteDeadline(time.Now().Add(t.opts.writeTimeout))
	if _, err := c.Write(appendFrame(nil, hello[:])); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("transport: handshake with %d: %w", to, err)
	}
	return c, nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.lis.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.inbound[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// knownParty reports whether a handshake identity belongs to the
// cluster (and is not our own ID).
func (t *TCP) knownParty(p types.PartyID) bool {
	if p == t.self {
		return false
	}
	t.mu.Lock()
	_, ok := t.addrs[p]
	t.mu.Unlock()
	return ok
}

// removeInbound prunes a finished inbound connection so dead
// connections do not accumulate across peer restarts.
func (t *TCP) removeInbound(c net.Conn) {
	t.mu.Lock()
	delete(t.inbound, c)
	t.mu.Unlock()
}

// readLoop consumes frames from an inbound connection. The handshake
// must arrive within the dial timeout; after it the connection may stay
// silent as long as it likes.
func (t *TCP) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer t.removeInbound(c)
	defer c.Close()
	r := bufio.NewReaderSize(c, readBufSize)
	_ = c.SetReadDeadline(time.Now().Add(t.opts.dialTimeout))
	from, err := readHello(r)
	if err != nil || !t.knownParty(from) {
		return // silent, malformed, unknown or self-claiming: reject
	}
	_ = c.SetReadDeadline(time.Time{})
	for {
		raw, err := readFrame(r)
		if err != nil {
			return
		}
		m, err := types.Unmarshal(raw)
		if err != nil {
			continue // corrupt frame from a possibly-corrupt peer
		}
		select {
		case <-t.done:
			return
		default:
		}
		select {
		case t.inbox <- Envelope{From: from, Msg: m, At: time.Now()}:
		default:
			// Drop on overload; see the inproc transport's rationale.
			t.stats.InboxOverflow()
		}
	}
}

// appendFrame appends one frame — u32 length, then payload — to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readHello reads the handshake frame and returns the party ID it
// carries. A length other than 8 is refused before anything past the
// header is read.
func readHello(r io.Reader) (types.PartyID, error) {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return 0, err
	}
	if n := binary.BigEndian.Uint32(b[:4]); n != 8 {
		return 0, fmt.Errorf("transport: %d-byte handshake, want 8", n)
	}
	if _, err := io.ReadFull(r, b[4:]); err != nil {
		return 0, err
	}
	return types.PartyID(int64(binary.BigEndian.Uint64(b[4:]))), nil
}

// readFrame reads one frame. A length over maxFrame is refused before
// the payload is allocated.
func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

var _ Endpoint = (*TCP)(nil)
