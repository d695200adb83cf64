package pool

import (
	"fmt"

	"icc/internal/crypto"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/multisig"
	"icc/internal/types"
)

// VerifyPolicy selects which cryptographic admission checks run on
// artifacts entering a pool.
type VerifyPolicy int

const (
	// VerifyFull checks every signature: authenticators, shares, and
	// the n−t signatures inside combined aggregates. The production
	// default for a pool fed raw network input.
	VerifyFull VerifyPolicy = iota
	// VerifyPreVerified admits everything without cryptographic checks:
	// the input was already verified upstream (the parallel verification
	// pipeline; in a simulation, nothing forges), and re-checking on the
	// sequential engine path would undo the pipelining. Structural checks
	// (duplicate suppression, round/proposer consistency against stored
	// blocks) still apply — they are pool-state-dependent and cannot move
	// upstream.
	VerifyPreVerified
)

// String implements fmt.Stringer.
func (p VerifyPolicy) String() string {
	switch p {
	case VerifyFull:
		return "full"
	case VerifyPreVerified:
		return "pre-verified"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Verifier performs the cryptographic admission checks for pool
// artifacts. Implementations must be safe for concurrent use: the same
// verifier instance is shared between a pool (sequential engine path)
// and the parallel verification pipeline's workers.
//
// Each method returns nil if the artifact's cryptography is acceptable
// under the verifier's policy; a non-nil error wraps one of the
// internal/crypto sentinels so callers can classify the reject.
// Structural validity (index ranges, round ≠ 0) is included: a verifier
// must be usable on raw network input before any pool state is
// consulted.
type Verifier interface {
	Authenticator(a *types.Authenticator) error
	NotarizationShare(s *types.NotarizationShare) error
	Notarization(nz *types.Notarization) error
	FinalizationShare(s *types.FinalizationShare) error
	Finalization(f *types.Finalization) error
}

// CryptoVerifier is the standard Verifier over a cluster's public key
// material. It is stateless apart from the read-only keys, hence safe
// for concurrent use by any number of goroutines.
type CryptoVerifier struct {
	pub    *keys.Public
	policy VerifyPolicy
}

var _ Verifier = (*CryptoVerifier)(nil)

// NewVerifier builds a CryptoVerifier with the given policy.
func NewVerifier(pub *keys.Public, policy VerifyPolicy) *CryptoVerifier {
	return &CryptoVerifier{pub: pub, policy: policy}
}

// Policy reports the verifier's policy.
func (v *CryptoVerifier) Policy() VerifyPolicy { return v.policy }

// Authenticator checks the proposer's S_auth signature on the block hash.
func (v *CryptoVerifier) Authenticator(a *types.Authenticator) error {
	if a == nil || a.Proposer < 0 || int(a.Proposer) >= v.pub.N || a.Round == 0 {
		return fmt.Errorf("%w: malformed authenticator", crypto.ErrBadSignature)
	}
	if v.policy == VerifyPreVerified {
		return nil
	}
	msg := types.SigningBytes(a.Round, a.Proposer, a.BlockHash)
	return v.pub.VerifyAuth(int(a.Proposer), types.DomainAuthenticator, msg, a.Sig)
}

// NotarizationShare checks one party's S_notary share.
func (v *CryptoVerifier) NotarizationShare(s *types.NotarizationShare) error {
	if s == nil || s.Signer < 0 || int(s.Signer) >= v.pub.N || s.Round == 0 {
		return fmt.Errorf("%w: malformed notarization share", crypto.ErrBadShare)
	}
	if v.policy == VerifyPreVerified {
		return nil
	}
	msg := types.SigningBytes(s.Round, s.Proposer, s.BlockHash)
	return v.pub.Notary.VerifyShare(types.DomainNotarization, msg, &aggsig.Share{Signer: int(s.Signer), Signature: s.Sig})
}

// Notarization checks a combined n−t notarization aggregate.
func (v *CryptoVerifier) Notarization(nz *types.Notarization) error {
	return v.CertificateKnown(nz, nil)
}

// FinalizationShare checks one party's S_final share.
func (v *CryptoVerifier) FinalizationShare(s *types.FinalizationShare) error {
	if s == nil || s.Signer < 0 || int(s.Signer) >= v.pub.N || s.Round == 0 {
		return fmt.Errorf("%w: malformed finalization share", crypto.ErrBadShare)
	}
	if v.policy == VerifyPreVerified {
		return nil
	}
	msg := types.SigningBytes(s.Round, s.Proposer, s.BlockHash)
	return v.pub.Final.VerifyShare(types.DomainFinalization, msg, &aggsig.Share{Signer: int(s.Signer), Signature: s.Sig})
}

// Finalization checks a combined n−t finalization aggregate.
func (v *CryptoVerifier) Finalization(f *types.Finalization) error {
	return v.CertificateKnown(f, nil)
}

// CertificateKnown checks a notarization or finalization certificate as
// Notarization and Finalization do, except that a multisig signature for
// which known (nil: none) reports true is not checked again: known vouches
// that this very signature from that signer on this statement has
// verified before. A BLS certificate has no signature per signer to skip.
func (v *CryptoVerifier) CertificateKnown(m types.Message, known func(signer int, sig []byte) bool) error {
	var (
		scheme aggsig.Scheme
		domain hash.Domain
		k      types.Round
		prop   types.PartyID
		bh     hash.Digest
		enc    []byte
	)
	switch c := m.(type) {
	case *types.Notarization:
		if c == nil || c.Round == 0 {
			return fmt.Errorf("%w: malformed notarization", crypto.ErrBadAggregate)
		}
		scheme, domain, k, prop, bh, enc = v.pub.Notary, types.DomainNotarization, c.Round, c.Proposer, c.BlockHash, c.Agg
	case *types.Finalization:
		if c == nil || c.Round == 0 {
			return fmt.Errorf("%w: malformed finalization", crypto.ErrBadAggregate)
		}
		scheme, domain, k, prop, bh, enc = v.pub.Final, types.DomainFinalization, c.Round, c.Proposer, c.BlockHash, c.Agg
	default:
		return fmt.Errorf("%w: %v is no certificate", crypto.ErrBadAggregate, m.Kind())
	}
	if v.policy == VerifyPreVerified {
		return nil
	}
	agg, err := scheme.Decode(enc)
	if err != nil {
		return err
	}
	msg := types.SigningBytes(k, prop, bh)
	if ms, ok := scheme.(*multisig.PublicInfo); ok && known != nil {
		return ms.VerifyKnown(domain, msg, agg, known)
	}
	return scheme.Verify(domain, msg, agg)
}
