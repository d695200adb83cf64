package gossip

import (
	"crypto/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/simnet"
	"icc/internal/types"
)

// beaconEngine runs Fig. 1's beacon and nothing else: it broadcasts its
// share of round 1, and each time it learns a round's value — revealed
// from shares or installed from an output — it notes when and broadcasts
// its share of the next round, up to last.
type beaconEngine struct {
	id       types.PartyID
	src      beacon.Source
	last     types.Round
	round    types.Round // the round whose value it waits for
	revealed map[types.Round]time.Duration
}

func (e *beaconEngine) ID() types.PartyID                            { return e.id }
func (e *beaconEngine) NextWake(time.Duration) (time.Duration, bool) { return 0, false }
func (e *beaconEngine) CurrentRound() types.Round                    { return e.round }
func (e *beaconEngine) Beacon() beacon.Source                        { return e.src }

func (e *beaconEngine) share(k types.Round) []engine.Output {
	s, err := e.src.ShareForRound(k)
	if err != nil {
		panic(err)
	}
	e.src.AddShare(s)
	return []engine.Output{engine.Broadcast(s)}
}

func (e *beaconEngine) Init(time.Duration) []engine.Output {
	e.round, e.revealed = 1, make(map[types.Round]time.Duration)
	return e.share(1)
}

func (e *beaconEngine) HandleMessage(_ types.PartyID, m types.Message, now time.Duration) []engine.Output {
	if s, ok := m.(*types.BeaconShare); ok {
		e.src.AddShare(s)
	}
	return e.Tick(now)
}

func (e *beaconEngine) Tick(now time.Duration) []engine.Output {
	var outs []engine.Output
	for e.round <= e.last {
		if _, ok := e.src.Reveal(e.round); !ok {
			break
		}
		e.revealed[e.round] = now
		e.round++
		if e.round <= e.last {
			outs = append(outs, e.share(e.round)...)
		}
	}
	return outs
}

// relayLog wraps a party's overlay and notes every beacon share it sends
// that another party signed, with the instant it left.
type relayLog struct {
	engine.Engine
	id   types.PartyID
	sent *[]relayed
}

type relayed struct {
	from  types.PartyID
	round types.Round
	at    time.Duration
}

func (r relayLog) note(outs []engine.Output, now time.Duration) []engine.Output {
	for _, o := range outs {
		var shares []*types.BeaconShare
		switch v := o.Msg.(type) {
		case *types.BeaconShare:
			shares = []*types.BeaconShare{v}
		case *types.ShareBundle:
			shares = v.Beacon
		}
		for _, s := range shares {
			if s.Signer != r.id {
				*r.sent = append(*r.sent, relayed{r.id, s.Round, now})
			}
		}
	}
	return outs
}

func (r relayLog) Init(now time.Duration) []engine.Output { return r.note(r.Engine.Init(now), now) }
func (r relayLog) Tick(now time.Duration) []engine.Output { return r.note(r.Engine.Tick(now), now) }
func (r relayLog) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return r.note(r.Engine.HandleMessage(from, m, now), now)
}

// beaconRun runs rounds 1..last of the beacon alone over the deployed
// overlay (2 ms adaptive batches, shares trusted) of n parties with the
// given fanout, on links of 1–10 ms, under the DLEQ beacon (no output to
// forward) or the simulated one (outputs forwarded). It returns each
// party's engine and every relayed beacon share sent.
func beaconRun(t *testing.T, n, fanout int, last types.Round, outputs bool) ([]*beaconEngine, []relayed) {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	seed := []byte("genesis")
	net := simnet.New(simnet.Options{Seed: 7, Delay: simnet.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}})
	var sent []relayed
	engines := make([]*beaconEngine, n)
	for i := range engines {
		id := types.PartyID(i)
		var src beacon.Source = beacon.New(pub.Beacon, privs[i].Beacon, id, seed)
		if outputs {
			src = beacon.NewSimulated(n, id, seed)
		}
		engines[i] = &beaconEngine{id: id, src: src, last: last}
		g := mustNew(t, Config{Self: id, N: n, Fanout: fanout, Seed: 42, ShareBatchWindow: 2 * time.Millisecond,
			AdaptiveBatch: true, TrustShares: true}, engines[i])
		net.AddNode(relayLog{Engine: g, id: id, sent: &sent}, true)
	}
	net.Start()
	done := func() bool {
		for _, e := range engines {
			if e.round <= last {
				return false
			}
		}
		return true
	}
	if !net.RunUntil(done, time.Duration(last)*time.Second) {
		for _, e := range engines {
			if e.round <= last {
				t.Fatalf("party %d never revealed round %d", e.id, e.round)
			}
		}
	}
	return engines, sent
}

// On an overlay where every party has at least 2t neighbours, a round's
// shares need not cross more than one hop: once every party has revealed
// round k, no party sends another party's round-k share (rule 5).
func TestRelayedBeaconSharesStopOnceEveryPartyRevealed(t *testing.T) {
	const n, last = 13, 8
	for _, outputs := range []bool{false, true} {
		engines, sent := beaconRun(t, n, 8, last, outputs)
		for k := types.Round(1); k <= last; k++ {
			var all time.Duration
			for _, e := range engines {
				all = max(all, e.revealed[k])
			}
			for _, s := range sent {
				if s.round == k && s.at >= all {
					t.Errorf("outputs=%v: party %d relayed a round-%d share at %v, every party had revealed it by %v",
						outputs, s.from, k, s.at, all)
				}
			}
		}
		t.Logf("outputs=%v: %d relayed beacon shares over %d rounds", outputs, len(sent), last)
	}
}

// Where the fanout is below t+1 a party cannot reveal from first-hand
// shares alone. Under DLEQ the relays go on after the listening time;
// with an output to forward, the output takes their place. Either way
// every party reveals every round.
func TestRelayedBeaconSharesFlowOnASparseOverlay(t *testing.T) {
	const n, fanout, last = 13, 2, 6
	if fanout >= types.BeaconQuorum(n) {
		t.Fatalf("fanout %d is not below t+1 = %d", fanout, types.BeaconQuorum(n))
	}
	for _, outputs := range []bool{false, true} {
		_, sent := beaconRun(t, n, fanout, last, outputs)
		if !outputs && len(sent) == 0 {
			t.Fatal("no beacon share was relayed on a ring of 13 under DLEQ")
		}
	}
}

// TrustShares vouches for notarization and finalization shares only: a
// forged beacon output is verified, refused, and neither installed nor
// forwarded.
func TestForgedBeaconOutputRefusedUnderTrust(t *testing.T) {
	src := beacon.NewSimulated(7, 0, []byte("genesis"))
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1, TrustShares: true},
		&feedingSink{sink: sink{id: 0}, src: src})
	forged := &types.BeaconOutput{Round: 1, Output: make([]byte, 32)}
	if outs := g.HandleMessage(g.Peers()[0], forged, 0); len(outs) != 0 {
		t.Fatalf("forged output forwarded in %d frames", len(outs))
	}
	if src.Have(1) {
		t.Fatal("forged output installed")
	}
}
