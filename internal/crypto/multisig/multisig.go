// Package multisig implements the (t, n−t, n)-threshold signature
// instances S_notary and S_final of the ICC protocols as a multi-signature
// over ordinary signatures: a share is an ed25519 signature, and the
// combined signature is the set of shares identified by a signer bitmap.
//
// Paper §2.3 explicitly lists this as implementation approach (i)/(ii):
// "One way is simply to use an ordinary signature scheme to generate
// individual signature shares, and the combination algorithm just outputs
// a set of signature shares." The (t, h, n) security game is satisfied
// directly: a valid aggregate proves h distinct parties signed, so at
// least h−t honest parties authorized the message.
//
// PublicInfo implements aggsig.Scheme — the repository-default
// instantiation of the pluggable certificate interface (DESIGN.md §15).
// Its certificates grow ~66 B per signer; the aggsig.BLSInfo alternative
// keeps them constant-size.
package multisig

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icc/internal/crypto"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/sig"
)

// PublicInfo is the verification material for one scheme instance. Build
// it with NewPublicInfo, which gives each key the sig.Verifier its checks go
// through, and do not change Keys afterwards.
type PublicInfo struct {
	N         int
	Threshold int // h: number of distinct signers an aggregate must carry
	Keys      []sig.PublicKey

	verifiers []sig.Verifier // verifiers[i] checks under Keys[i]
}

// NewPublicInfo returns the instance of n parties with the given keys whose
// aggregates must carry threshold signers.
func NewPublicInfo(n, threshold int, keys []sig.PublicKey) *PublicInfo {
	return &PublicInfo{N: n, Threshold: threshold, Keys: keys, verifiers: sig.NewVerifiers(keys)}
}

// SecretKey is one party's signing key for the instance.
type SecretKey struct {
	Index int
	Key   sig.PrivateKey
}

// Share is one party's signature share on a message — the scheme-neutral
// aggsig form; the Signature bytes are an ed25519 signature here.
type Share = aggsig.Share

// Aggregate is a combined signature: a signer bitmap plus the individual
// signatures, stored in increasing signer order.
type Aggregate struct {
	Signers []int    // sorted ascending, no duplicates
	Sigs    [][]byte // Sigs[i] is Signers[i]'s signature
}

// Errors returned by the package. ErrBadShare and ErrBadAggregate wrap
// the repository-wide sentinels of internal/crypto, so admission layers
// classify failures with errors.Is across all signature schemes.
var (
	ErrBadShare        = fmt.Errorf("multisig: %w", crypto.ErrBadShare)
	ErrNotEnoughShares = errors.New("multisig: not enough valid shares")
	ErrBadAggregate    = fmt.Errorf("multisig: %w", crypto.ErrBadAggregate)
)

// Sign produces this party's share on the domain-tagged message.
func (k SecretKey) Sign(domain hash.Domain, msg []byte) *Share {
	return &Share{Signer: k.Index, Signature: sig.Sign(k.Key, domain, msg)}
}

// ID implements aggsig.Scheme.
func (p *PublicInfo) ID() aggsig.SchemeID { return aggsig.SchemeMultisig }

// Parties implements aggsig.Scheme.
func (p *PublicInfo) Parties() int { return p.N }

// Quorum implements aggsig.Scheme.
func (p *PublicInfo) Quorum() int { return p.Threshold }

// WithQuorum implements aggsig.Scheme: the same keys at a different
// quorum (the checkpoint certificate re-uses S_final keys at t+1), sharing
// their verifiers.
func (p *PublicInfo) WithQuorum(q int) aggsig.Scheme {
	return &PublicInfo{N: p.N, Threshold: q, Keys: p.Keys, verifiers: p.verifiers}
}

// VerifyShare checks one share against the registered key of its signer.
func (p *PublicInfo) VerifyShare(domain hash.Domain, msg []byte, s *Share) error {
	if s == nil || s.Signer < 0 || s.Signer >= p.N {
		return fmt.Errorf("%w: signer out of range", ErrBadShare)
	}
	if err := p.verifiers[s.Signer].Verify(domain, msg, s.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadShare, err)
	}
	return nil
}

// Combine verifies the supplied shares and, if at least Threshold distinct
// valid ones are present, outputs an aggregate. Invalid and duplicate
// shares are skipped, matching the protocol's tolerance of corrupt input.
func (p *PublicInfo) Combine(domain hash.Domain, msg []byte, shares []*Share) (aggsig.Certificate, error) {
	bySigner := make(map[int][]byte, len(shares))
	for _, s := range shares {
		if s == nil {
			continue
		}
		if _, dup := bySigner[s.Signer]; dup {
			continue
		}
		if err := p.VerifyShare(domain, msg, s); err != nil {
			continue
		}
		bySigner[s.Signer] = s.Signature
		if len(bySigner) == p.Threshold {
			break
		}
	}
	return p.assemble(bySigner)
}

// CombineVerified aggregates shares whose signatures the caller has
// already verified (pool admission or an upstream verification
// pipeline), skipping the per-share signature check Combine repeats.
// Duplicates and out-of-range signers are still dropped — those are
// structural, not cryptographic, properties. The caller's attestation
// is load-bearing: feeding unverified shares here produces an aggregate
// that other parties will reject.
func (p *PublicInfo) CombineVerified(shares []*Share) (aggsig.Certificate, error) {
	bySigner := make(map[int][]byte, len(shares))
	for _, s := range shares {
		if s == nil || s.Signer < 0 || s.Signer >= p.N {
			continue
		}
		if _, dup := bySigner[s.Signer]; dup {
			continue
		}
		bySigner[s.Signer] = s.Signature
		if len(bySigner) == p.Threshold {
			break
		}
	}
	return p.assemble(bySigner)
}

// assemble orders a deduplicated signer→signature map into an Aggregate.
func (p *PublicInfo) assemble(bySigner map[int][]byte) (aggsig.Certificate, error) {
	if len(bySigner) < p.Threshold {
		return nil, fmt.Errorf("%w: %d valid of %d needed", ErrNotEnoughShares, len(bySigner), p.Threshold)
	}
	agg := &Aggregate{
		Signers: make([]int, 0, len(bySigner)),
		Sigs:    make([][]byte, 0, len(bySigner)),
	}
	for i := 0; i < p.N; i++ {
		if s, ok := bySigner[i]; ok {
			agg.Signers = append(agg.Signers, i)
			agg.Sigs = append(agg.Sigs, s)
		}
	}
	return agg, nil
}

// Verify checks a certificate: produced by this scheme, at least
// Threshold distinct in-range signers, sorted without duplicates, each
// signature valid.
func (p *PublicInfo) Verify(domain hash.Domain, msg []byte, c aggsig.Certificate) error {
	return p.VerifyKnown(domain, msg, c, nil)
}

// VerifyKnown is Verify, except that a signature for which known (nil:
// none) reports true is taken as valid without a check: the caller vouches
// that it has verified those very bytes from that signer on this message.
// The structural checks apply to every signer all the same.
func (p *PublicInfo) VerifyKnown(domain hash.Domain, msg []byte, c aggsig.Certificate, known func(signer int, sig []byte) bool) error {
	agg, ok := c.(*Aggregate)
	if !ok || agg == nil {
		var got aggsig.SchemeID
		if c != nil && !ok {
			got = c.Scheme()
		}
		return fmt.Errorf("%w: certificate scheme %s, verifier configured for %s",
			ErrBadAggregate, got, aggsig.SchemeMultisig)
	}
	if len(agg.Signers) != len(agg.Sigs) {
		return fmt.Errorf("%w: malformed", ErrBadAggregate)
	}
	if len(agg.Signers) < p.Threshold {
		return fmt.Errorf("%w: %d signers, need %d", ErrBadAggregate, len(agg.Signers), p.Threshold)
	}
	prev := -1
	for i, signer := range agg.Signers {
		if signer <= prev || signer >= p.N {
			return fmt.Errorf("%w: signer list not strictly increasing in range", ErrBadAggregate)
		}
		prev = signer
		if known != nil && known(signer, agg.Sigs[i]) {
			continue
		}
		if err := p.verifiers[signer].Verify(domain, msg, agg.Sigs[i]); err != nil {
			return fmt.Errorf("%w: signer %d: %v", ErrBadAggregate, signer, err)
		}
	}
	return nil
}

// Scheme implements aggsig.Certificate.
func (agg *Aggregate) Scheme() aggsig.SchemeID { return aggsig.SchemeMultisig }

// SignerIDs implements aggsig.Certificate.
func (agg *Aggregate) SignerIDs() []int { return agg.Signers }

// Encode serialises the aggregate: scheme tag, u16 count, then
// (u16 signer, sig) pairs.
func (agg *Aggregate) Encode() []byte {
	out := make([]byte, 0, 3+len(agg.Signers)*(2+sig.SignatureLen))
	out = append(out, byte(aggsig.SchemeMultisig))
	out = binary.BigEndian.AppendUint16(out, uint16(len(agg.Signers)))
	for i, signer := range agg.Signers {
		out = binary.BigEndian.AppendUint16(out, uint16(signer))
		out = append(out, agg.Sigs[i]...)
	}
	return out
}

// CertSize implements aggsig.Scheme: the tag, the signer count and each
// signer's id beside its signature, as Encode writes them.
func (p *PublicInfo) CertSize(signers int) int { return 3 + signers*(2+sig.SignatureLen) }

// Decode implements aggsig.Scheme, rejecting certificates tagged for a
// different scheme.
func (p *PublicInfo) Decode(b []byte) (aggsig.Certificate, error) {
	return DecodeAggregate(b)
}

// DecodeAggregate parses an aggregate encoded by Encode.
func DecodeAggregate(b []byte) (*Aggregate, error) {
	b, err := aggsig.CheckTag(b, aggsig.SchemeMultisig)
	if err != nil {
		return nil, fmt.Errorf("multisig: %w", err)
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: truncated", ErrBadAggregate)
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	const entry = 2 + sig.SignatureLen
	if len(b) != count*entry {
		return nil, fmt.Errorf("%w: length %d for %d entries", ErrBadAggregate, len(b), count)
	}
	agg := &Aggregate{
		Signers: make([]int, count),
		Sigs:    make([][]byte, count),
	}
	for i := 0; i < count; i++ {
		agg.Signers[i] = int(binary.BigEndian.Uint16(b))
		s := make([]byte, sig.SignatureLen)
		copy(s, b[2:entry])
		agg.Sigs[i] = s
		b = b[entry:]
	}
	return agg, nil
}

var (
	_ aggsig.Scheme      = (*PublicInfo)(nil)
	_ aggsig.Certificate = (*Aggregate)(nil)
	_ aggsig.Signer      = SecretKey{}
)
