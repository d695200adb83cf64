package harness

import (
	"encoding/binary"
	"math/rand"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/thresig"
	"icc/internal/engine"
	"icc/internal/types"
)

// beaconJunkEvery is how often a BeaconJunk party sends every other party
// junk beacon shares.
const beaconJunkEvery = 5 * time.Millisecond

// beaconJunk runs the protocol honestly but sends every other party, every
// beaconJunkEvery, a fresh junk share of its own for each of the two
// rounds after its current one — the round whose shares are being
// gathered, and the next, whose shares nobody has sent yet: a well-formed DLEQ share that decodes, signed with a key
// dealt apart from the cluster's over a message no round signs, so only a
// share check tells it from a real one. Each copy has new bytes, so every
// relay takes it for a new artifact. No relay may let it stop the
// round's honest shares.
type beaconJunk struct {
	engine.Engine
	n    int
	pub  *thresig.PublicInfo
	key  thresig.SecretShare
	rng  *rand.Rand
	next time.Duration
	sent uint64
}

func newBeaconJunk(eng engine.Engine, n int, seed int64) *beaconJunk {
	rng := rand.New(rand.NewSource(seed))
	pub, keys, err := thresig.Deal(rng, types.BeaconQuorum(n), n)
	if err != nil {
		panic(err)
	}
	return &beaconJunk{Engine: eng, n: n, pub: pub, key: keys[eng.ID()], rng: rng}
}

// Beacon implements engine.Beaconed for the wrapped engine.
func (j *beaconJunk) Beacon() beacon.Source { return engine.BeaconOf(j.Engine) }

func (j *beaconJunk) junk(now time.Duration) []engine.Output {
	if now < j.next {
		return nil
	}
	j.next = now + beaconJunkEvery
	var outs []engine.Output
	for k := j.CurrentRound() + 1; k <= j.CurrentRound()+2; k++ {
		j.sent++
		s, err := j.pub.Sign(j.rng, j.key, binary.BigEndian.AppendUint64([]byte("junk"), j.sent))
		if err != nil {
			panic(err)
		}
		share := &types.BeaconShare{Round: k, Signer: j.ID(), Share: s.Encode()}
		for p := 0; p < j.n; p++ {
			if to := types.PartyID(p); to != j.ID() {
				outs = append(outs, engine.Unicast(to, share))
			}
		}
	}
	return outs
}

func (j *beaconJunk) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return append(j.Engine.HandleMessage(from, m, now), j.junk(now)...)
}

func (j *beaconJunk) Tick(now time.Duration) []engine.Output {
	return append(j.Engine.Tick(now), j.junk(now)...)
}

func (j *beaconJunk) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := j.Engine.NextWake(now)
	if due := max(j.next, now+1); !ok || due < at {
		return due, true
	}
	return at, ok
}
