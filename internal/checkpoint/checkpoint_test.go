package checkpoint

import (
	"bytes"
	"crypto/rand"
	"testing"

	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/multisig"
	"icc/internal/types"
)

// buildCertified fabricates a fully certified checkpoint for an
// n-party cluster: a notarized boundary block, a state snapshot, and a
// t+1 checkpoint certificate.
func buildCertified(t *testing.T, n int) (*keys.Public, []keys.Private, *Checkpoint) {
	t.Helper()
	return buildCertifiedScheme(t, n, aggsig.SchemeMultisig)
}

func buildCertifiedScheme(t *testing.T, n int, scheme aggsig.SchemeID) (*keys.Public, []keys.Private, *Checkpoint) {
	t.Helper()
	pub, privs, err := keys.DealScheme(rand.Reader, n, scheme)
	if err != nil {
		t.Fatal(err)
	}
	block := &types.Block{
		Round:      10,
		Proposer:   2,
		ParentHash: hash.SumUint64(hash.DomainBlock, 9),
		Payload:    []byte("boundary payload"),
	}
	bh := block.Hash()
	msg := types.SigningBytes(block.Round, block.Proposer, bh)
	var nzShares []*multisig.Share
	for i := 0; i < types.NotaryQuorum(n); i++ {
		nzShares = append(nzShares, privs[i].Notary.Sign(types.DomainNotarization, msg))
	}
	nzAgg, err := pub.Notary.Combine(types.DomainNotarization, msg, nzShares)
	if err != nil {
		t.Fatal(err)
	}
	var fzShares []*multisig.Share
	for i := 0; i < types.NotaryQuorum(n); i++ {
		fzShares = append(fzShares, privs[i].Final.Sign(types.DomainFinalization, msg))
	}
	fzAgg, err := pub.Final.Combine(types.DomainFinalization, msg, fzShares)
	if err != nil {
		t.Fatal(err)
	}
	state := []byte("replicated state after block 10")
	c := &Checkpoint{
		Round:        block.Round,
		BlockHash:    bh,
		StateHash:    StateDigest(state),
		BeaconDigest: hash.SumUint64(hash.DomainBeacon, 10),
		Block:        block,
		Notarization: &types.Notarization{Round: block.Round, Proposer: block.Proposer, BlockHash: bh, Agg: nzAgg.Encode()},
		Finalization: &types.Finalization{Round: block.Round, Proposer: block.Proposer, BlockHash: bh, Agg: fzAgg.Encode()},
		State:        state,
	}
	cMsg := c.SigningBytes()
	var cpShares []*multisig.Share
	for i := 0; i < types.CheckpointQuorum(n); i++ {
		cpShares = append(cpShares, privs[i].Final.Sign(types.DomainCheckpoint, cMsg))
	}
	cpAgg, err := PublicInfo(pub).Combine(types.DomainCheckpoint, cMsg, cpShares)
	if err != nil {
		t.Fatal(err)
	}
	c.Agg = cpAgg.Encode()
	return pub, privs, c
}

func TestEncodeDecodeVerify(t *testing.T) {
	pub, _, c := buildCertified(t, 4)
	if err := Verify(pub, c); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	raw := c.Encode()
	c2, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := Verify(pub, c2); err != nil {
		t.Fatalf("decoded checkpoint rejected: %v", err)
	}
	if c2.Round != c.Round || c2.BlockHash != c.BlockHash || c2.StateHash != c.StateHash ||
		c2.BeaconDigest != c.BeaconDigest || string(c2.State) != string(c.State) {
		t.Fatal("round-trip altered fields")
	}
	if c2.Finalization == nil {
		t.Fatal("finalization lost in round trip")
	}
}

func TestEncodeDecodeVerifyBLS(t *testing.T) {
	// Checkpoint certificates under the BLS scheme: the t+1 sub-quorum
	// view (WithQuorum) must deal, combine, wire-encode, and verify the
	// same way the default multisig instance does. One full Verify here
	// costs three pairing checks — kept to a single test case.
	pub, _, c := buildCertifiedScheme(t, 4, aggsig.SchemeBLS)
	if err := Verify(pub, c); err != nil {
		t.Fatalf("valid BLS checkpoint rejected: %v", err)
	}
	c2, err := Decode(c.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := Verify(pub, c2); err != nil {
		t.Fatalf("decoded BLS checkpoint rejected: %v", err)
	}
	// A multisig-framed aggregate in a BLS cluster must be rejected as a
	// bad aggregate, not crash the decoder.
	c2.Agg = append([]byte{byte(aggsig.SchemeMultisig)}, c2.Agg[1:]...)
	if err := Verify(pub, c2); err == nil {
		t.Fatal("cross-scheme checkpoint certificate accepted")
	}
}

func TestVerifyWithoutFinalization(t *testing.T) {
	pub, _, c := buildCertified(t, 4)
	c.Finalization = nil
	if err := Verify(pub, c); err != nil {
		t.Fatalf("checkpoint without finalization aggregate rejected: %v", err)
	}
	c2, err := Decode(c.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if c2.Finalization != nil {
		t.Fatal("nil finalization did not round-trip")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *Checkpoint)
	}{
		{"state", func(c *Checkpoint) { c.State = append([]byte{}, "forged"...) }},
		{"state-hash-pair", func(c *Checkpoint) {
			c.State = []byte("forged")
			c.StateHash = StateDigest(c.State) // hash matches, certificate doesn't
		}},
		{"round", func(c *Checkpoint) { c.Round++ }},
		{"beacon", func(c *Checkpoint) { c.BeaconDigest[0] ^= 1 }},
		{"block", func(c *Checkpoint) { c.Block.Payload = []byte("other") }},
		{"certificate", func(c *Checkpoint) { c.Agg[len(c.Agg)-1] ^= 1 }},
		{"cert-truncated", func(c *Checkpoint) { c.Agg = c.Agg[:3] }},
		{"notarization", func(c *Checkpoint) { c.Notarization.Agg[4] ^= 1 }},
		{"notarization-round", func(c *Checkpoint) { c.Notarization.Round++ }},
		{"finalization", func(c *Checkpoint) { c.Finalization.Agg[4] ^= 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pub, _, c := buildCertified(t, 4)
			tc.mutate(c)
			if err := Verify(pub, c); err == nil {
				t.Fatalf("tampered checkpoint (%s) verified", tc.name)
			}
		})
	}
}

func TestVerifyRejectsBelowQuorumCert(t *testing.T) {
	pub, privs, c := buildCertified(t, 4)
	// Rebuild the certificate with only 1 share where t+1 = 2 are needed.
	share := privs[0].Final.Sign(types.DomainCheckpoint, c.SigningBytes())
	agg := &multisig.Aggregate{Signers: []int{0}, Sigs: [][]byte{share.Signature}}
	c.Agg = agg.Encode()
	if err := Verify(pub, c); err == nil {
		t.Fatal("sub-quorum certificate verified")
	}
}

func TestStoreSaveLatestRetention(t *testing.T) {
	_, _, c := buildCertified(t, 4)
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Latest(); err != nil || got != nil {
		t.Fatalf("empty store Latest = (%v, %v)", got, err)
	}
	if _, _, ok := s.LatestEncoded(); ok {
		t.Fatal("empty store claims an encoded checkpoint")
	}
	// Save rounds 10, 20, 30 (same certified content, bumped rounds would
	// break the cert — so re-save the same checkpoint at fake rounds by
	// copying and shifting only what the store looks at is not possible;
	// instead save three genuinely distinct-round variants by rebuilding).
	rounds := []types.Round{c.Round}
	if err := s.Save(c); err != nil {
		t.Fatalf("save: %v", err)
	}
	for i := 0; i < 2; i++ {
		next := structuralClone(t, c.Round+types.Round(10*(i+1)))
		if err := s.Save(next); err != nil {
			t.Fatalf("save %d: %v", next.Round, err)
		}
		rounds = append(rounds, next.Round)
	}
	if got := s.LatestRound(); got != rounds[len(rounds)-1] {
		t.Fatalf("LatestRound = %d, want %d", got, rounds[len(rounds)-1])
	}
	if got := len(s.files()); got != 2 {
		t.Fatalf("retention kept %d files, want 2", got)
	}
	// Stale saves are no-ops.
	if err := s.Save(c); err != nil {
		t.Fatalf("stale save: %v", err)
	}
	if got := s.LatestRound(); got != rounds[len(rounds)-1] {
		t.Fatalf("stale save moved LatestRound to %d", got)
	}
	// Reopen: latest survives and decodes.
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Latest()
	if err != nil || got == nil {
		t.Fatalf("reopened Latest = (%v, %v)", got, err)
	}
	if got.Round != rounds[len(rounds)-1] {
		t.Fatalf("reopened round %d, want %d", got.Round, rounds[len(rounds)-1])
	}
}

// structuralClone fabricates a structurally complete checkpoint at the
// given round. Its certificate does not verify (the store never
// verifies; that is the engine's job on load and receipt), which is
// exactly what the retention test needs.
func structuralClone(t *testing.T, round types.Round) *Checkpoint {
	t.Helper()
	_, _, c := buildCertified(t, 4)
	c.Round = round
	c.Block.Round = round
	c.BlockHash = c.Block.Hash()
	return c
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	if err := s.Save(&Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	if c, err := s.Latest(); c != nil || err != nil {
		t.Fatal("nil store returned a checkpoint")
	}
	if _, _, ok := s.LatestEncoded(); ok {
		t.Fatal("nil store returned an encoding")
	}
	if s.LatestRound() != 0 {
		t.Fatal("nil store round")
	}
	s.Close()
}

// FuzzCheckpointDecode feeds Decode what a disk or a peer can hand it
// (Store files, CheckpointMsg blobs): it must never panic, and whatever it
// accepts must re-encode to exactly the bytes it read, so that one
// checkpoint has one encoding.
func FuzzCheckpointDecode(f *testing.F) {
	block := &types.Block{Round: 10, Proposer: 2, ParentHash: hash.SumUint64(hash.DomainBlock, 9), Payload: []byte("boundary payload")}
	bh := block.Hash()
	c := &Checkpoint{
		Round:        block.Round,
		BlockHash:    bh,
		StateHash:    StateDigest([]byte("state")),
		BeaconDigest: hash.SumUint64(hash.DomainBeacon, 10),
		Block:        block,
		Notarization: &types.Notarization{Round: block.Round, Proposer: block.Proposer, BlockHash: bh, Agg: []byte("notarization aggregate")},
		Finalization: &types.Finalization{Round: block.Round, Proposer: block.Proposer, BlockHash: bh, Agg: []byte("finalization aggregate")},
		State:        []byte("state"),
		Agg:          []byte("checkpoint certificate"),
	}
	f.Add(c.Encode())
	c.Finalization = nil
	none := c.Encode()
	f.Add(none)
	// The same encoding with its finalization flag set to 2, which Decode
	// once read as "none" and so re-encoded as 0.
	tail := types.NewEncoder(0)
	tail.VarBytes(c.State)
	tail.VarBytes(c.Agg)
	flag2 := bytes.Clone(none)
	flag2[len(none)-len(tail.Bytes())-1] = 2
	f.Add(flag2)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		if enc := c.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted encoding re-encodes differently:\nread   %x\nencode %x", data, enc)
		}
	})
}
