package verify

import (
	"sync/atomic"
	"testing"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/crypto/multisig"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
)

// checkCounter is the standard verifier with a count of the signatures a
// certificate check hands to sig.Verifier: multisig.VerifyKnown checks a
// signer exactly when known reports false for it.
type checkCounter struct {
	*pool.CryptoVerifier
	checks atomic.Int64
}

func (c *checkCounter) CertificateKnown(m types.Message, known func(int, []byte) bool) error {
	return c.CryptoVerifier.CertificateKnown(m, func(signer int, sig []byte) bool {
		if known(signer, sig) {
			return true
		}
		c.checks.Add(1)
		return false
	})
}

// A certificate whose signatures this party has already verified as
// shares, or signed itself, costs no signature check; one it has not
// seen is checked, and a forged one refused.
func TestCertificateSkipsSharesAlreadyChecked(t *testing.T) {
	f := newFixture(t, 4)
	cv := &checkCounter{CryptoVerifier: pool.NewVerifier(f.pub, pool.VerifyFull)}
	p := New(cv, Options{Workers: 1})
	defer p.Close()
	cert := func(bh hash.Digest, sigs map[types.PartyID][]byte) *types.Notarization {
		agg := &multisig.Aggregate{}
		for s := types.PartyID(0); s < 4; s++ {
			if sig, ok := sigs[s]; ok {
				agg.Signers = append(agg.Signers, int(s))
				agg.Sigs = append(agg.Sigs, sig)
			}
		}
		return &types.Notarization{Round: 1, Proposer: 0, BlockHash: bh, Agg: agg.Encode()}
	}
	admitted := func(m types.Message) bool {
		p.Submit(transport.Envelope{From: 1, Msg: m})
		select {
		case <-p.Out():
			return true
		case <-time.After(200 * time.Millisecond):
			return false
		}
	}
	for i, bh := range []hash.Digest{{1}, {2}} {
		sigs := map[types.PartyID][]byte{}
		for s := types.PartyID(0); s < 3; s++ {
			sigs[s] = f.nshare(1, 0, s, bh).Sig
		}
		// Signer 0 is this party: its share leaves, never arrives.
		p.NoteOwn(0, &types.Bundle{Messages: []types.Message{f.nshare(1, 0, 0, bh)}})
		for s := types.PartyID(1); s < 3; s++ {
			if !admitted(f.nshare(1, 0, s, bh)) {
				t.Fatalf("share of %d refused", s)
			}
		}
		cv.checks.Store(0)
		if i == 0 {
			if !admitted(cert(bh, sigs)) {
				t.Fatal("certificate of checked shares refused")
			}
			if got := cv.checks.Load(); got != 0 {
				t.Fatalf("certificate of checked shares cost %d signature checks, want 0", got)
			}
			continue
		}
		// A third signer the pipeline never saw, with a forged signature.
		sigs[3] = make([]byte, 64)
		if admitted(cert(bh, sigs)) {
			t.Fatal("certificate with a forged signature admitted")
		}
		if got := cv.checks.Load(); got != 1 {
			t.Fatalf("forged certificate cost %d signature checks, want the 1 unseen", got)
		}
	}
}
