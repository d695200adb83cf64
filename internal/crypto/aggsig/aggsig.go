// Package aggsig defines the pluggable aggregate-signature interface
// behind the protocol's quorum certificates. The ICC paper (§2.3) lists
// three ways to instantiate the (t, h, n) threshold instances S_notary
// and S_final: (i)/(ii) a multi-signature of ordinary signatures — the
// repository's original, and still default, scheme — and (iii) compact
// aggregate signatures such as BLS, which the paper's §1.1 O(n)
// communication claim assumes. This package is the seam between those
// choices and every layer that handles certificates: the pool, the
// verification pipeline, relay-side gossip aggregation, checkpointing,
// and the wire codec.
//
// A Certificate is a signer set plus a scheme-specific proof; its
// encoding is tagged with a leading scheme byte so a verifier configured
// for one scheme deterministically rejects artifacts produced under
// another (no panics, no silent misverification — see Scheme.Decode).
package aggsig

import (
	"fmt"

	"icc/internal/crypto"
	"icc/internal/crypto/hash"
)

// SchemeID identifies an aggregate-signature scheme on the wire: it is
// the first byte of every encoded certificate.
type SchemeID uint8

// Registered schemes.
const (
	// SchemeMultisig is the concatenation-of-ed25519 multi-signature
	// (paper §2.3 approach (i)/(ii)); certificate size grows ~66 B per
	// signer. The repository default.
	SchemeMultisig SchemeID = 1
	// SchemeBLS is the BLS12-381 aggregate signature (approach (iii)):
	// one G1 point regardless of signer count, plus a signer bitmap.
	SchemeBLS SchemeID = 2
)

// String implements fmt.Stringer with the names the -cert-scheme flag
// accepts.
func (id SchemeID) String() string {
	switch id {
	case SchemeMultisig:
		return "multisig"
	case SchemeBLS:
		return "bls"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(id))
	}
}

// ParseSchemeID resolves a -cert-scheme flag value.
func ParseSchemeID(name string) (SchemeID, error) {
	switch name {
	case "multisig", "":
		return SchemeMultisig, nil
	case "bls":
		return SchemeBLS, nil
	default:
		return 0, fmt.Errorf("aggsig: unknown certificate scheme %q (want multisig or bls)", name)
	}
}

// Share is one party's signature share on a message. The Signature
// bytes are scheme-specific: an ed25519 signature under multisig, an
// encoded G1 point under BLS. Shares travel individually (and inside
// ShareBundle frames) exactly as before — only the combined certificate
// changed shape.
type Share struct {
	Signer    int
	Signature []byte
}

// Certificate is a combined quorum signature: the set of signers that
// contributed, plus a scheme-specific proof. Implementations are
// produced by their Scheme's Combine/CombineVerified/Decode and verified
// by the same Scheme's Verify — feeding a certificate to a different
// scheme fails with ErrBadAggregate.
type Certificate interface {
	// Scheme names the implementation, matching the encoding's tag byte.
	Scheme() SchemeID
	// SignerIDs returns the contributing signers, sorted ascending.
	SignerIDs() []int
	// Encode serialises the certificate, leading scheme tag included.
	Encode() []byte
}

// Scheme is the verification side of one aggregate-signature instance:
// the per-party keys, the quorum an admissible certificate must reach,
// and the combine/verify/decode algorithms. Implementations:
// multisig.PublicInfo and BLSInfo.
type Scheme interface {
	// ID names the scheme (and the tag its certificates carry).
	ID() SchemeID
	// Parties returns n, the number of registered signers.
	Parties() int
	// Quorum returns h, the number of distinct signers a certificate
	// must carry to verify.
	Quorum() int
	// WithQuorum derives an instance over the same keys with a different
	// quorum — the checkpoint certificate re-uses the S_final keys at
	// t+1 instead of n−t.
	WithQuorum(q int) Scheme

	// VerifyShare checks one share against the registered key of its
	// signer.
	VerifyShare(domain hash.Domain, msg []byte, s *Share) error
	// Combine verifies the supplied shares and, given at least Quorum
	// distinct valid ones, outputs a certificate. Invalid and duplicate
	// shares are skipped.
	Combine(domain hash.Domain, msg []byte, shares []*Share) (Certificate, error)
	// CombineVerified aggregates shares the caller has already verified
	// (pool admission or the verification pipeline), skipping the
	// per-share check. Duplicates and out-of-range signers are still
	// dropped.
	CombineVerified(shares []*Share) (Certificate, error)
	// Verify checks a certificate produced by this scheme. A
	// certificate from a different scheme fails with ErrBadAggregate.
	Verify(domain hash.Domain, msg []byte, c Certificate) error
	// Decode parses an encoded certificate, rejecting artifacts whose
	// tag names a different scheme with ErrBadAggregate.
	Decode(b []byte) (Certificate, error)
	// CertSize is the encoded size of a certificate that carries the
	// given number of signers — the largest such, where the encoding
	// also depends on which signers they are.
	CertSize(signers int) int
}

// Signer is the signing side: one party's secret key for the instance.
// Implementations: multisig.SecretKey and BLSSecretKey.
type Signer interface {
	// Sign produces this party's share on the domain-tagged message.
	Sign(domain hash.Domain, msg []byte) *Share
}

// CheckTag validates the leading scheme byte of an encoded certificate
// against the decoding scheme and returns the body. Scheme
// implementations call it first in Decode, so cross-scheme artifacts are
// rejected uniformly with ErrBadAggregate before any scheme-specific
// parsing runs.
func CheckTag(b []byte, want SchemeID) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: empty certificate", crypto.ErrBadAggregate)
	}
	if got := SchemeID(b[0]); got != want {
		return nil, fmt.Errorf("%w: certificate scheme %s, verifier configured for %s",
			crypto.ErrBadAggregate, got, want)
	}
	return b[1:], nil
}
