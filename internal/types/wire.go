package types

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icc/internal/crypto/hash"
)

// Encoder builds a length-framed binary encoding. All integers are
// big-endian; byte strings are u32-length-prefixed.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// Varint appends a zigzag varint: 1 to 10 bytes, fewer the nearer v is
// to 0.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bytes32 appends a fixed 32-byte value.
func (e *Encoder) Bytes32(d hash.Digest) { e.buf = append(e.buf, d[:]...) }

// VarBytes appends a u32 length prefix followed by the bytes.
func (e *Encoder) VarBytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// ErrTruncated is returned when a decoder runs out of input.
var ErrTruncated = errors.New("types: truncated encoding")

// ErrTrailingBytes is returned when input remains after a full decode.
var ErrTrailingBytes = errors.New("types: trailing bytes after message")

// maxVarBytes bounds a single variable-length field (16 MiB) so that a
// malicious length prefix cannot trigger a huge allocation.
const maxVarBytes = 16 << 20

// Decoder consumes a binary encoding produced by Encoder. Errors latch:
// after the first failure every method returns zero values and Err()
// reports the failure, so call sites can decode a whole struct and check
// once.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps the input bytes.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns an error if decoding failed or input remains.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(d.b))
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = ErrTruncated
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Varint reads a zigzag varint, refusing any encoding longer than
// Encoder.Varint's, so each value has one.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	switch {
	case n == 0:
		d.err = ErrTruncated
		return 0
	case n < 0 || n != len(binary.AppendVarint(nil, v)):
		d.err = errors.New("types: malformed varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Bytes32 reads a fixed 32-byte value.
func (d *Decoder) Bytes32() hash.Digest {
	var out hash.Digest
	b := d.take(hash.Size)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// VarBytes reads a u32-length-prefixed byte string. The returned slice is
// a copy, safe to retain.
func (d *Decoder) VarBytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxVarBytes {
		d.err = fmt.Errorf("types: var-bytes length %d exceeds limit", n)
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
