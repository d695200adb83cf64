package gossip

import (
	"testing"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/types"
)

// benchInner is an inner engine that swallows everything and whose round
// follows the benchmark, so that old rounds are collected as on a node.
type benchInner struct{ round types.Round }

func (*benchInner) ID() types.PartyID                  { return 0 }
func (*benchInner) Init(time.Duration) []engine.Output { return nil }
func (*benchInner) HandleMessage(types.PartyID, types.Message, time.Duration) []engine.Output {
	return nil
}
func (*benchInner) Tick(time.Duration) []engine.Output           { return nil }
func (*benchInner) NextWake(time.Duration) (time.Duration, bool) { return 0, false }
func (s *benchInner) CurrentRound() types.Round                  { return s.round }

type arrival struct {
	from types.PartyID
	msg  types.Message
}

var relayRoundFrames int

// BenchmarkRelayRound drives one full round of a 13-party cluster through
// one wrapper configured as node.New configures it: the block and its
// authenticator, then each of the 13 notarization shares from the three
// neighbours that would relay it (one bare, two inside bundles), a
// neighbour's certificate, the same for finalization, and the flushes in
// between. Signatures are filler: under TrustShares nothing here checks
// one. Written against the part of the package API that predates the
// per-neighbour table, so the same file measures the commit before it.
func BenchmarkRelayRound(b *testing.B) {
	f := newAggFixture(&testing.T{}, 13)
	inner := &benchInner{}
	g, err := New(Config{Self: 0, N: 13, Fanout: DefaultFanout(13), Seed: 42,
		ShareBatchWindow: 2 * time.Millisecond, AdaptiveBatch: true,
		Aggregate: true, TrustShares: true, Keys: f.pub}, inner)
	if err != nil {
		b.Fatal(err)
	}
	peers := g.Peers()
	sig := make([]byte, 64)
	cert := make([]byte, 660) // nine signers' worth of multisig aggregate
	rounds := make([][]arrival, b.N)
	for i := range rounds {
		k := types.Round(i + 1)
		h := hash.SumUint64(hash.DomainBlock, uint64(k))
		prop := types.PartyID(1 + i%12)
		evs := []arrival{
			{peers[0], &types.BlockMsg{Block: &types.Block{Round: k, Proposer: prop, Payload: make([]byte, 1024)}}},
			{peers[0], &types.Authenticator{Round: k, Proposer: prop, BlockHash: h, Sig: sig}},
			{peers[1], &types.Advert{Refs: []types.Ref{types.RefOf(&types.BlockMsg{Block: &types.Block{Round: k, Proposer: prop, Payload: make([]byte, 1024)}})}}},
		}
		for _, final := range []bool{false, true} {
			bundles := make([]*types.ShareBundle, len(peers))
			for s := types.PartyID(0); s < 13; s++ {
				var share types.Message = &types.NotarizationShare{Round: k, Proposer: prop, BlockHash: h, Signer: s, Sig: sig}
				if final {
					share = &types.FinalizationShare{Round: k, Proposer: prop, BlockHash: h, Signer: s, Sig: sig}
				}
				evs = append(evs, arrival{peers[int(s)%len(peers)], share})
				for _, relay := range []int{int(s) + 1, int(s) + 3} {
					bd := bundles[relay%len(peers)]
					if bd == nil {
						bd = &types.ShareBundle{}
						bundles[relay%len(peers)] = bd
					}
					appendToBundle(bd, share)
				}
			}
			for p, bd := range bundles {
				if bd != nil {
					evs = append(evs, arrival{peers[p], bd})
				}
			}
			var c types.Message = &types.Notarization{Round: k, Proposer: prop, BlockHash: h, Agg: cert}
			if final {
				c = &types.Finalization{Round: k, Proposer: prop, BlockHash: h, Agg: cert}
			}
			evs = append(evs, arrival{peers[2], c})
		}
		rounds[i] = evs
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	frames := 0
	for i, evs := range rounds {
		inner.round = types.Round(i + 1)
		for _, ev := range evs {
			now += 200 * time.Microsecond
			frames += len(g.HandleMessage(ev.from, ev.msg, now))
			if wake, ok := g.NextWake(now); ok && wake <= now+200*time.Microsecond {
				frames += len(g.Tick(wake))
			}
		}
		now += 40 * time.Millisecond
		frames += len(g.Tick(now))
	}
	relayRoundFrames = frames
	b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
}
