package bls

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// BLS signatures (Boneh–Lynn–Shacham [6], as named by paper §2.3):
// secret key sk ∈ Z_r, public key PK = sk·G2, signature σ = sk·H(m) ∈ G1,
// verification e(σ, G2) == e(H(m), PK). Signatures are unique — the
// property the ICC random beacon requires.

// Errors returned by the package.
var (
	ErrInvalidSignature = errors.New("bls: invalid signature")
	ErrNotEnoughShares  = errors.New("bls: not enough valid shares")
)

// SecretKey is a BLS signing key.
type SecretKey struct {
	k *big.Int
}

// PublicKey is a BLS verification key.
type PublicKey struct {
	p *G2Point
}

// Signature is a (unique) BLS signature.
type Signature struct {
	s *G1Point
}

// GenerateKey samples a fresh key pair.
func GenerateKey(rng io.Reader) (*SecretKey, *PublicKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	k, err := randScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	return &SecretKey{k: k}, &PublicKey{p: G2Generator().Mul(k)}, nil
}

func randScalar(rng io.Reader) (*big.Int, error) {
	for {
		buf := make([]byte, 32)
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, fmt.Errorf("bls: sampling scalar: %w", err)
		}
		k := new(big.Int).SetBytes(buf)
		if k.Cmp(R) < 0 && k.Sign() != 0 {
			return k, nil
		}
	}
}

// Sign produces σ = sk·H(m).
func (sk *SecretKey) Sign(msg []byte) *Signature {
	return &Signature{s: HashToG1(msg).Mul(sk.k)}
}

// Verify checks e(σ, G2) == e(H(m), PK).
func (pk *PublicKey) Verify(msg []byte, sig *Signature) error {
	if sig == nil || sig.s == nil || sig.s.IsInfinity() || !sig.s.IsOnCurve() {
		return ErrInvalidSignature
	}
	if !PairingCheck(sig.s, G2Generator(), HashToG1(msg), pk.p) {
		return ErrInvalidSignature
	}
	return nil
}

// Point returns the signature's G1 point (for uniqueness checks and
// beacon derivation).
func (s *Signature) Point() *G1Point { return s.s }

// Point returns the public key's G2 point (for aggregate-public-key
// accumulation).
func (pk *PublicKey) Point() *G2Point { return pk.p }

// PublicKeyFromPoint wraps a G2 point as a verification key.
func PublicKeyFromPoint(p *G2Point) *PublicKey { return &PublicKey{p: p} }

// SecretKeyLen is the encoded secret-scalar length.
const SecretKeyLen = 32

// Encode serialises the secret scalar (32 bytes, big-endian).
func (sk *SecretKey) Encode() []byte {
	out := make([]byte, SecretKeyLen)
	sk.k.FillBytes(out)
	return out
}

// DecodeSecretKey parses a secret scalar encoded by Encode.
func DecodeSecretKey(b []byte) (*SecretKey, error) {
	if len(b) != SecretKeyLen {
		return nil, fmt.Errorf("bls: bad secret key length %d", len(b))
	}
	k := new(big.Int).SetBytes(b)
	if k.Sign() == 0 || k.Cmp(R) >= 0 {
		return nil, errors.New("bls: secret scalar out of range")
	}
	return &SecretKey{k: k}, nil
}

// Encode serialises the verification key (uncompressed G2).
func (pk *PublicKey) Encode() []byte { return pk.p.Encode() }

// DecodePublicKey parses a verification key encoded by Encode.
func DecodePublicKey(b []byte) (*PublicKey, error) {
	p, err := DecodeG2(b)
	if err != nil {
		return nil, err
	}
	if p.IsInfinity() {
		return nil, errors.New("bls: public key is the identity")
	}
	return &PublicKey{p: p}, nil
}

// Equal reports signature equality (meaningful because BLS signatures
// are unique).
func (s *Signature) Equal(t *Signature) bool { return s.s.Equal(t.s) }

// --- Threshold BLS (paper §2.3 approach (iii)) ---

// ThresholdPublic is the verification material of a Shamir-shared BLS
// instance.
type ThresholdPublic struct {
	N         int
	Threshold int
	Global    *PublicKey
	Shares    []*PublicKey // per-party share public keys sk_i·G2
}

// ThresholdShareKey is one party's signing share.
type ThresholdShareKey struct {
	Index int
	Key   *SecretKey
}

// SigShare is one party's signature share.
type SigShare struct {
	Index int
	Sig   *Signature
}

// DealThreshold Shamir-shares a fresh master key with the given
// threshold (t+1 for the ICC beacon).
func DealThreshold(rng io.Reader, threshold, n int) (*ThresholdPublic, []ThresholdShareKey, error) {
	if threshold < 1 || threshold > n {
		return nil, nil, fmt.Errorf("bls: invalid threshold %d of %d", threshold, n)
	}
	if rng == nil {
		rng = rand.Reader
	}
	coeffs := make([]*big.Int, threshold)
	for i := range coeffs {
		c, err := randScalar(rng)
		if err != nil {
			return nil, nil, err
		}
		coeffs[i] = c
	}
	pub := &ThresholdPublic{
		N:         n,
		Threshold: threshold,
		Global:    &PublicKey{p: G2Generator().Mul(coeffs[0])},
		Shares:    make([]*PublicKey, n),
	}
	keys := make([]ThresholdShareKey, n)
	for i := 0; i < n; i++ {
		x := big.NewInt(int64(i + 1))
		// Horner evaluation mod R.
		acc := new(big.Int)
		for j := threshold - 1; j >= 0; j-- {
			acc.Mul(acc, x)
			acc.Add(acc, coeffs[j])
			acc.Mod(acc, R)
		}
		sk := &SecretKey{k: new(big.Int).Set(acc)}
		keys[i] = ThresholdShareKey{Index: i, Key: sk}
		pub.Shares[i] = &PublicKey{p: G2Generator().Mul(acc)}
	}
	return pub, keys, nil
}

// SignShare produces party i's share σ_i = sk_i·H(m).
func (k ThresholdShareKey) SignShare(msg []byte) *SigShare {
	return &SigShare{Index: k.Index, Sig: k.Key.Sign(msg)}
}

// VerifyShare checks a share against its registered share public key
// (a real pairing check — the property the paper gets from BLS and that
// the DLEQ-based thresig package emulates).
func (tp *ThresholdPublic) VerifyShare(msg []byte, s *SigShare) error {
	if s == nil || s.Index < 0 || s.Index >= tp.N {
		return ErrInvalidSignature
	}
	return tp.Shares[s.Index].Verify(msg, s.Sig)
}

// Combine verifies shares and Lagrange-interpolates any Threshold of
// them into the unique master signature. Invalid and duplicate shares
// are skipped.
func (tp *ThresholdPublic) Combine(msg []byte, shares []*SigShare) (*Signature, error) {
	valid := make([]*SigShare, 0, tp.Threshold)
	seen := make(map[int]struct{}, len(shares))
	for _, s := range shares {
		if len(valid) == tp.Threshold {
			break
		}
		if s == nil {
			continue
		}
		if _, dup := seen[s.Index]; dup {
			continue
		}
		if err := tp.VerifyShare(msg, s); err != nil {
			continue
		}
		seen[s.Index] = struct{}{}
		valid = append(valid, s)
	}
	return tp.CombineVerified(valid)
}

// CombineVerified interpolates the first Threshold of the given shares
// without verifying them: each must already have passed VerifyShare for
// the message, and their indices must be distinct. The BLS beacon uses
// it to pay each share's pairing check once however often it tries to
// combine.
func (tp *ThresholdPublic) CombineVerified(valid []*SigShare) (*Signature, error) {
	if len(valid) < tp.Threshold {
		return nil, fmt.Errorf("%w: %d of %d", ErrNotEnoughShares, len(valid), tp.Threshold)
	}
	valid = valid[:tp.Threshold]
	// Lagrange interpolation at 0 in the exponent.
	acc := G1Infinity()
	for i, si := range valid {
		num := big.NewInt(1)
		den := big.NewInt(1)
		xi := big.NewInt(int64(si.Index + 1))
		for j, sj := range valid {
			if i == j {
				continue
			}
			xj := big.NewInt(int64(sj.Index + 1))
			num.Mul(num, new(big.Int).Neg(xj))
			num.Mod(num, R)
			d := new(big.Int).Sub(xi, xj)
			den.Mul(den, d)
			den.Mod(den, R)
		}
		lam := new(big.Int).Mul(num, new(big.Int).ModInverse(den, R))
		lam.Mod(lam, R)
		acc = acc.Add(si.Sig.s.Mul(lam))
	}
	return &Signature{s: acc}, nil
}

// VerifyCombined checks a combined signature against the global public
// key — third-party verifiable, unlike the DLEQ-based scheme where only
// shares carry proofs.
func (tp *ThresholdPublic) VerifyCombined(msg []byte, sig *Signature) error {
	return tp.Global.Verify(msg, sig)
}

// SignatureFromPoint wraps a G1 point as a Signature (used when shares
// travel on the wire as bare points and are verified at combination).
func SignatureFromPoint(p *G1Point) *Signature { return &Signature{s: p} }
