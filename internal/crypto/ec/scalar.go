package ec

import (
	"fmt"
	"io"
	"math/big"
)

// The two moduli as integers. Scalars are reduced by N here; the field
// arithmetic (field.go) has p built into its limbs and does not read P,
// which stays exported for callers that want the prime as a number.
var (
	// P is the field prime 2^256 - 2^32 - 977.
	P, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)
	// N is the (prime) group order.
	N, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
)

// Scalar is an element of Z_N, the scalar field of the group.
// Scalars are immutable once created.
type Scalar struct {
	v *big.Int // always reduced to [0, N)
}

// NewScalar returns the scalar v mod N.
func NewScalar(v *big.Int) *Scalar {
	r := new(big.Int).Mod(v, N)
	return &Scalar{v: r}
}

// ScalarFromUint64 returns the scalar for a small integer.
func ScalarFromUint64(v uint64) *Scalar {
	return &Scalar{v: new(big.Int).SetUint64(v)}
}

// ZeroScalar returns 0.
func ZeroScalar() *Scalar { return &Scalar{v: new(big.Int)} }

// OneScalar returns 1.
func OneScalar() *Scalar { return &Scalar{v: big.NewInt(1)} }

// RandomScalar returns a uniformly random element of Z_N.
func RandomScalar(rng io.Reader) (*Scalar, error) {
	if rng == nil {
		rng = randReader
	}
	for {
		buf := make([]byte, ScalarLen)
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, fmt.Errorf("ec: sampling scalar: %w", err)
		}
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(N) < 0 {
			return &Scalar{v: v}, nil
		}
		// Rejection sampling keeps the distribution exactly uniform;
		// the retry probability is < 2^-128 for secp256k1.
	}
}

// ScalarFromBytesWide reduces a byte string mod N. Useful for deriving
// scalars from hashes (slight bias is acceptable for test-only derivation;
// protocol-critical sampling uses RandomScalar).
func ScalarFromBytesWide(b []byte) *Scalar {
	return NewScalar(new(big.Int).SetBytes(b))
}

// IsZero reports whether s == 0.
func (s *Scalar) IsZero() bool { return s.v.Sign() == 0 }

// Equal reports whether two scalars are equal.
func (s *Scalar) Equal(t *Scalar) bool { return s.v.Cmp(t.v) == 0 }

// Add returns s + t mod N.
func (s *Scalar) Add(t *Scalar) *Scalar {
	r := new(big.Int).Add(s.v, t.v)
	r.Mod(r, N)
	return &Scalar{v: r}
}

// Sub returns s - t mod N.
func (s *Scalar) Sub(t *Scalar) *Scalar {
	r := new(big.Int).Sub(s.v, t.v)
	r.Mod(r, N)
	return &Scalar{v: r}
}

// Mul returns s * t mod N.
func (s *Scalar) Mul(t *Scalar) *Scalar {
	r := new(big.Int).Mul(s.v, t.v)
	r.Mod(r, N)
	return &Scalar{v: r}
}

// Neg returns -s mod N.
func (s *Scalar) Neg() *Scalar {
	r := new(big.Int).Neg(s.v)
	r.Mod(r, N)
	return &Scalar{v: r}
}

// Inv returns s^-1 mod N. Panics if s is zero (programmer error: the
// callers divide only by pairwise-distinct evaluation points).
func (s *Scalar) Inv() *Scalar {
	if s.IsZero() {
		panic("ec: inverse of zero scalar")
	}
	r := new(big.Int).ModInverse(s.v, N)
	return &Scalar{v: r}
}

// Encode returns the 32-byte big-endian encoding.
func (s *Scalar) Encode() []byte {
	out := s.bytes()
	return out[:]
}

// bytes is Encode into an array, which the window readers of curve.go
// index without allocating.
func (s *Scalar) bytes() (kb [ScalarLen]byte) {
	s.v.FillBytes(kb[:])
	return kb
}

// DecodeScalar parses a 32-byte big-endian scalar; values >= N are
// rejected so that encodings are canonical.
func DecodeScalar(b []byte) (*Scalar, error) {
	if len(b) != ScalarLen {
		return nil, fmt.Errorf("%w: length %d", ErrInvalidScalar, len(b))
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(N) >= 0 {
		return nil, fmt.Errorf("%w: value >= group order", ErrInvalidScalar)
	}
	return &Scalar{v: v}, nil
}

// String returns a short debug form.
func (s *Scalar) String() string { return s.v.Text(16) }
