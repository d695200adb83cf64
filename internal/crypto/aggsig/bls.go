package aggsig

import (
	"fmt"
	"io"

	"icc/internal/crypto"
	"icc/internal/crypto/bls"
	"icc/internal/crypto/hash"
)

// BLS instantiation of the certificate Scheme (paper §2.3 approach
// (iii)): a share is σ_i = sk_i·H(domain‖m) ∈ G1, and a certificate is
// the sum Σσ_i — one 96-byte point however many parties signed — plus
// the signer bitmap identifying which public keys participate.
//
// Verification is *lazy*: instead of pairing-checking each share, the
// verifier folds the signers' public keys into one aggregate key
// APK = Σ PK_i (pure G2 additions, ~17 µs each) and runs a single
// pairing check e(σ, G2) == e(H(m), APK). With this repository's
// from-scratch big.Int pairing a check costs ~1 s, so the live path
// leans on CombineVerified — combining pre-verified shares is pure G1
// addition (~9 µs per share) — and full pairing verification is
// reserved for admission policies that demand it (pool.VerifyFull) and
// for the verifying Combine, which falls back to per-share checks only
// when the lazy aggregate check fails.
//
// Safety is the standard aggregate-BLS argument restricted to one
// message: every share aggregated signs the *same* domain-tagged m, so
// rogue-key splitting across distinct messages does not arise, and the
// dealer (internal/crypto/keys) generates keys honestly, so rogue-key
// registration does not arise either. A certificate with h distinct
// signers therefore proves h parties signed m, which is exactly the
// (t, h, n) security game S_notary/S_final require. DESIGN.md §15.

// BLSSecretKey is one party's signing key for a BLS certificate
// instance.
type BLSSecretKey struct {
	Index int
	Key   *bls.SecretKey
}

// Sign implements Signer: the share is the encoded point sk·H(domain‖m).
func (k BLSSecretKey) Sign(domain hash.Domain, msg []byte) *Share {
	d := hash.Sum(domain, msg)
	return &Share{Signer: k.Index, Signature: k.Key.Sign(d[:]).Point().Encode()}
}

// BLSInfo is the verification material for one BLS certificate
// instance.
type BLSInfo struct {
	N int
	Q int // quorum: distinct signers a certificate must carry
	// Keys[i] is party i's share public key sk_i·G2.
	Keys []*bls.PublicKey
}

// BLSCertificate is a combined BLS quorum signature.
type BLSCertificate struct {
	Signers []int // sorted ascending, no duplicates
	Sig     *bls.G1Point
}

// DealBLS generates fresh independent BLS key pairs for an n-party
// instance with the given quorum.
func DealBLS(rng io.Reader, quorum, n int) (*BLSInfo, []BLSSecretKey, error) {
	info := &BLSInfo{N: n, Q: quorum, Keys: make([]*bls.PublicKey, n)}
	secrets := make([]BLSSecretKey, n)
	for i := 0; i < n; i++ {
		sk, pk, err := bls.GenerateKey(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("aggsig: bls key %d: %w", i, err)
		}
		info.Keys[i] = pk
		secrets[i] = BLSSecretKey{Index: i, Key: sk}
	}
	return info, secrets, nil
}

// Scheme implements Certificate.
func (c *BLSCertificate) Scheme() SchemeID { return SchemeBLS }

// SignerIDs implements Certificate.
func (c *BLSCertificate) SignerIDs() []int { return c.Signers }

// Encode implements Certificate: scheme tag, u16 bitmap width (the
// instance's n at combine time), the signer bitmap, and the 96-byte
// aggregate point — constant-size modulo the ⌈n/8⌉-byte bitmap.
func (c *BLSCertificate) Encode() []byte {
	nbits := 0
	for _, s := range c.Signers {
		if s+1 > nbits {
			nbits = s + 1
		}
	}
	bitmap := make([]byte, (nbits+7)/8)
	for _, s := range c.Signers {
		bitmap[s/8] |= 1 << (s % 8)
	}
	out := make([]byte, 0, 3+len(bitmap)+bls.G1PointLen)
	out = append(out, byte(SchemeBLS), byte(nbits>>8), byte(nbits))
	out = append(out, bitmap...)
	return append(out, c.Sig.Encode()...)
}

// ID implements Scheme.
func (p *BLSInfo) ID() SchemeID { return SchemeBLS }

// Parties implements Scheme.
func (p *BLSInfo) Parties() int { return p.N }

// Quorum implements Scheme.
func (p *BLSInfo) Quorum() int { return p.Q }

// WithQuorum implements Scheme.
func (p *BLSInfo) WithQuorum(q int) Scheme { return &BLSInfo{N: p.N, Q: q, Keys: p.Keys} }

// VerifyShare implements Scheme with a full pairing check of the share
// point against the signer's registered key. This is the expensive path
// (~1 s with the big.Int pairing); trusted-share relay configurations
// and the pre-verified pool policies never take it.
func (p *BLSInfo) VerifyShare(domain hash.Domain, msg []byte, s *Share) error {
	if s == nil || s.Signer < 0 || s.Signer >= p.N {
		return fmt.Errorf("aggsig/bls: %w: signer out of range", crypto.ErrBadShare)
	}
	pt, err := bls.DecodeG1(s.Signature)
	if err != nil {
		return fmt.Errorf("aggsig/bls: %w: %v", crypto.ErrBadShare, err)
	}
	d := hash.Sum(domain, msg)
	if err := p.Keys[s.Signer].Verify(d[:], bls.SignatureFromPoint(pt)); err != nil {
		return fmt.Errorf("aggsig/bls: %w: %v", crypto.ErrBadShare, err)
	}
	return nil
}

// dedupe keeps the first in-range, non-duplicate, decodable share per
// signer, up to the quorum, returning parallel sorted signers/points.
func (p *BLSInfo) dedupe(shares []*Share) (signers []int, points []*bls.G1Point) {
	bySigner := make(map[int]*bls.G1Point, len(shares))
	for _, s := range shares {
		if s == nil || s.Signer < 0 || s.Signer >= p.N {
			continue
		}
		if _, dup := bySigner[s.Signer]; dup {
			continue
		}
		pt, err := bls.DecodeG1(s.Signature)
		if err != nil || pt.IsInfinity() {
			continue
		}
		bySigner[s.Signer] = pt
		if len(bySigner) == p.Q {
			break
		}
	}
	for i := 0; i < p.N; i++ {
		if pt, ok := bySigner[i]; ok {
			signers = append(signers, i)
			points = append(points, pt)
		}
	}
	return signers, points
}

func aggregate(signers []int, points []*bls.G1Point) *BLSCertificate {
	sum := bls.G1Infinity()
	for _, pt := range points {
		sum = sum.Add(pt)
	}
	return &BLSCertificate{Signers: signers, Sig: sum}
}

// CombineVerified implements Scheme: pure G1 addition over shares the
// caller already verified. Duplicates, out-of-range signers, and
// undecodable points are still dropped — structural, not cryptographic,
// checks.
func (p *BLSInfo) CombineVerified(shares []*Share) (Certificate, error) {
	signers, points := p.dedupe(shares)
	if len(signers) < p.Q {
		return nil, fmt.Errorf("aggsig/bls: not enough valid shares: %d of %d needed", len(signers), p.Q)
	}
	return aggregate(signers, points), nil
}

// Combine implements Scheme, verifying lazily: aggregate first, run one
// pairing check against the aggregate public key, and only on failure
// fall back to per-share pairing checks to evict the corrupt shares.
// The happy path — every share honest, the overwhelmingly common case —
// costs one pairing instead of |shares|.
func (p *BLSInfo) Combine(domain hash.Domain, msg []byte, shares []*Share) (Certificate, error) {
	signers, points := p.dedupe(shares)
	if len(signers) < p.Q {
		return nil, fmt.Errorf("aggsig/bls: not enough valid shares: %d of %d needed", len(signers), p.Q)
	}
	cert := aggregate(signers, points)
	if err := p.Verify(domain, msg, cert); err == nil {
		return cert, nil
	}
	// Some share is corrupt: isolate it the slow way. Re-scan the full
	// input — dedupe capped at the first Q structurally-valid shares, and
	// an honest replacement for the corrupt one may sit beyond that cap.
	good := make([]*Share, 0, len(shares))
	checked := make(map[int]bool, len(shares))
	for _, s := range shares {
		if s == nil || checked[s.Signer] {
			continue
		}
		checked[s.Signer] = true
		if p.VerifyShare(domain, msg, s) == nil {
			good = append(good, s)
		}
	}
	if len(good) < p.Q {
		return nil, fmt.Errorf("aggsig/bls: not enough valid shares: %d of %d needed", len(good), p.Q)
	}
	return p.CombineVerified(good)
}

// Verify implements Scheme: fold the signer bitmap's public keys into
// APK = Σ PK_i and run the single pairing check
// e(σ, G2) == e(H(domain‖m), APK).
func (p *BLSInfo) Verify(domain hash.Domain, msg []byte, c Certificate) error {
	cert, ok := c.(*BLSCertificate)
	if !ok || cert == nil {
		var got SchemeID
		if c != nil && !ok {
			got = c.Scheme()
		}
		return fmt.Errorf("aggsig/bls: %w: certificate scheme %s, verifier configured for %s",
			crypto.ErrBadAggregate, got, SchemeBLS)
	}
	if len(cert.Signers) < p.Q {
		return fmt.Errorf("aggsig/bls: %w: %d signers, need %d", crypto.ErrBadAggregate, len(cert.Signers), p.Q)
	}
	if cert.Sig == nil || cert.Sig.IsInfinity() || !cert.Sig.IsOnCurve() {
		return fmt.Errorf("aggsig/bls: %w: malformed aggregate point", crypto.ErrBadAggregate)
	}
	apk := bls.G2Infinity()
	prev := -1
	for _, signer := range cert.Signers {
		if signer <= prev || signer >= p.N {
			return fmt.Errorf("aggsig/bls: %w: signer list not strictly increasing in range", crypto.ErrBadAggregate)
		}
		prev = signer
		apk = apk.Add(p.Keys[signer].Point())
	}
	d := hash.Sum(domain, msg)
	if err := bls.PublicKeyFromPoint(apk).Verify(d[:], bls.SignatureFromPoint(cert.Sig)); err != nil {
		return fmt.Errorf("aggsig/bls: %w: aggregate pairing check failed", crypto.ErrBadAggregate)
	}
	return nil
}

// CertSize implements Scheme: the tag, the bitmap length and a bitmap as
// long as one naming party N−1, then one G1 point, whoever signed.
func (p *BLSInfo) CertSize(int) int { return 3 + (p.N+7)/8 + bls.G1PointLen }

// Decode implements Scheme, parsing the tagged frame Encode produces.
func (p *BLSInfo) Decode(b []byte) (Certificate, error) {
	body, err := CheckTag(b, SchemeBLS)
	if err != nil {
		return nil, fmt.Errorf("aggsig/bls: %w", err)
	}
	if len(body) < 2 {
		return nil, fmt.Errorf("aggsig/bls: %w: truncated", crypto.ErrBadAggregate)
	}
	nbits := int(body[0])<<8 | int(body[1])
	body = body[2:]
	bitmapLen := (nbits + 7) / 8
	if nbits > p.N || len(body) != bitmapLen+bls.G1PointLen {
		return nil, fmt.Errorf("aggsig/bls: %w: length %d for %d-party bitmap", crypto.ErrBadAggregate, len(body), nbits)
	}
	var signers []int
	for i := 0; i < nbits; i++ {
		if body[i/8]&(1<<(i%8)) != 0 {
			signers = append(signers, i)
		}
	}
	for i := nbits; i < bitmapLen*8; i++ {
		if body[i/8]&(1<<(i%8)) != 0 {
			return nil, fmt.Errorf("aggsig/bls: %w: bitmap padding bits set", crypto.ErrBadAggregate)
		}
	}
	pt, err := bls.DecodeG1(body[bitmapLen:])
	if err != nil {
		return nil, fmt.Errorf("aggsig/bls: %w: %v", crypto.ErrBadAggregate, err)
	}
	return &BLSCertificate{Signers: signers, Sig: pt}, nil
}

var (
	_ Scheme      = (*BLSInfo)(nil)
	_ Certificate = (*BLSCertificate)(nil)
	_ Signer      = BLSSecretKey{}
)
