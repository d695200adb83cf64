package transport

import (
	"testing"
	"time"

	"icc/internal/types"
)

func recvOne(t *testing.T, ep Endpoint, timeout time.Duration) Envelope {
	t.Helper()
	select {
	case env, ok := <-ep.Inbox():
		if !ok {
			t.Fatal("inbox closed")
		}
		return env
	case <-time.After(timeout):
		t.Fatal("timed out waiting for a message")
	}
	panic("unreachable")
}

func TestInprocDelivery(t *testing.T) {
	hub := NewInproc(3)
	defer hub.Close()
	a := hub.Endpoint(0)
	b := hub.Endpoint(1)
	msg := &types.BeaconShare{Round: 7, Signer: 0, Share: []byte{1, 2}}
	if err := a.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, time.Second)
	if env.From != 0 {
		t.Fatalf("from %d", env.From)
	}
	got, ok := env.Msg.(*types.BeaconShare)
	if !ok || got.Round != 7 {
		t.Fatalf("wrong message: %#v", env.Msg)
	}
}

func TestInprocRejectsOutOfRange(t *testing.T) {
	hub := NewInproc(2)
	defer hub.Close()
	if err := hub.Endpoint(0).Send(5, &types.Advert{}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestInprocClosedSendFails(t *testing.T) {
	hub := NewInproc(2)
	ep := hub.Endpoint(0)
	hub.Close()
	if err := ep.Send(1, &types.Advert{}); err == nil {
		t.Fatal("send through closed hub succeeded")
	}
}

func tcpPair(t testing.TB) (*TCP, *TCP) {
	t.Helper()
	// Listen on ephemeral ports, then rebuild the address map.
	bootstrap := map[types.PartyID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a, err := NewTCP(0, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	bootstrap2 := map[types.PartyID]string{0: a.Addr(), 1: "127.0.0.1:0"}
	b, err := NewTCP(1, bootstrap2)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	// Give a the real address of b.
	a.SetPeerAddr(1, b.Addr())
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	msg := &types.Notarization{Round: 3, Proposer: 1, Agg: []byte("agg")}
	if err := a.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 5*time.Second)
	if env.From != 0 {
		t.Fatalf("from %d", env.From)
	}
	if got := env.Msg.(*types.Notarization); got.Round != 3 || string(got.Agg) != "agg" {
		t.Fatalf("wrong payload: %#v", env.Msg)
	}
	// And the reverse direction (b dials a).
	if err := b.Send(0, msg); err != nil {
		t.Fatal(err)
	}
	env = recvOne(t, a, 5*time.Second)
	if env.From != 1 {
		t.Fatalf("reverse from %d", env.From)
	}
}

func TestTCPManyMessages(t *testing.T) {
	a, b := tcpPair(t)
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(1, &types.BeaconShare{Round: types.Round(i + 1), Signer: 0, Share: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(10 * time.Second)
	for got < count {
		select {
		case _, ok := <-b.Inbox():
			if !ok {
				t.Fatal("inbox closed early")
			}
			got++
		case <-deadline:
			t.Fatalf("received %d of %d", got, count)
		}
	}
}

func TestTCPLargeFrame(t *testing.T) {
	a, b := tcpPair(t)
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	msg := &types.BlockMsg{Block: &types.Block{Round: 1, Proposer: 0, Payload: payload}}
	if err := a.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 15*time.Second)
	got := env.Msg.(*types.BlockMsg).Block
	if len(got.Payload) != len(payload) || got.Payload[12345] != payload[12345] {
		t.Fatal("large payload corrupted")
	}
}

func TestTCPSendToUnknownParty(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send(9, &types.Advert{}); err == nil {
		t.Fatal("send to unknown party succeeded")
	}
}

func TestTCPCloseIsIdempotentAndUnblocks(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send(1, &types.Advert{}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 5*time.Second)
	done := make(chan error, 1)
	go func() { done <- a.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung (inbound connections not torn down?)")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := a.Send(1, &types.Advert{}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	bootstrap := map[types.PartyID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a, err := NewTCP(0, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := NewTCP(1, map[types.PartyID]string{0: a.Addr(), 1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	bAddr := b1.Addr()
	a.SetPeerAddr(1, bAddr)
	if err := a.Send(1, &types.Advert{}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b1, 5*time.Second)
	// Kill b and restart on the same port.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	var b2 *TCP
	for i := 0; i < 20; i++ { // the port may linger briefly
		b2, err = NewTCP(1, map[types.PartyID]string{0: a.Addr(), 1: bAddr})
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer b2.Close()
	// Send is a non-blocking enqueue that always succeeds; a frame
	// written into the stale connection's kernel buffer right as it
	// died can still be lost, so keep sending until one arrives via
	// the background redial.
	deadline := time.After(10 * time.Second)
	for {
		if err := a.Send(1, &types.Advert{Refs: []types.Ref{{Kind: types.KindBlock}}}); err != nil {
			t.Fatalf("send: %v", err)
		}
		select {
		case env, ok := <-b2.Inbox():
			if !ok {
				t.Fatal("restarted inbox closed")
			}
			if env.From != 0 {
				t.Fatalf("from %d", env.From)
			}
			return
		case <-deadline:
			t.Fatal("never reconnected to the restarted peer")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestInprocConcurrentSenders(t *testing.T) {
	hub := NewInproc(4)
	defer hub.Close()
	dst := hub.Endpoint(3)
	const perSender = 50
	for s := 0; s < 3; s++ {
		s := s
		go func() {
			ep := hub.Endpoint(types.PartyID(s))
			for i := 0; i < perSender; i++ {
				_ = ep.Send(3, &types.BeaconShare{Round: types.Round(i + 1), Signer: types.PartyID(s), Share: []byte{byte(i)}})
			}
		}()
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < 3*perSender {
		select {
		case <-dst.Inbox():
			got++
		case <-deadline:
			t.Fatalf("received %d of %d", got, 3*perSender)
		}
	}
}
