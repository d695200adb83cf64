package erasure

import (
	"errors"
	"fmt"
	"sync"
)

// Code is a systematic (n, k) Reed–Solomon code: k data shards are
// extended with n−k parity shards; any k shards reconstruct the data.
type Code struct {
	k, n int
	// matrix is the n×k generator: the top k×k block is the identity
	// (systematic), the rest an extended-Vandermonde-derived block such
	// that every k×k submatrix is invertible.
	matrix [][]byte
}

var tablesOnce sync.Once

// Errors returned by the package.
var (
	ErrBadParams       = errors.New("erasure: invalid code parameters")
	ErrNotEnoughShards = errors.New("erasure: not enough shards to reconstruct")
	ErrShardSize       = errors.New("erasure: inconsistent shard sizes")
)

// NewCode creates an (n, k) code. Requires 1 ≤ k ≤ n ≤ 255.
func NewCode(dataShards, totalShards int) (*Code, error) {
	if dataShards < 1 || totalShards < dataShards || totalShards > 255 {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrBadParams, dataShards, totalShards)
	}
	tablesOnce.Do(initTables)
	k, n := dataShards, totalShards
	// Build an n×k Vandermonde matrix V with distinct evaluation points,
	// then normalise the top k×k block to the identity by multiplying by
	// its inverse: A = V · (V_top)^-1. Every k×k submatrix of a
	// Vandermonde matrix over distinct points is invertible, and
	// multiplying on the right by an invertible matrix preserves that.
	v := make([][]byte, n)
	for r := 0; r < n; r++ {
		v[r] = make([]byte, k)
		x := byte(r + 1) // avoid the zero point for cleanliness
		acc := byte(1)
		for c := 0; c < k; c++ {
			v[r][c] = acc
			acc = gfMul(acc, x)
		}
	}
	top := make([][]byte, k)
	for r := 0; r < k; r++ {
		top[r] = append([]byte(nil), v[r]...)
	}
	topInv, err := invertMatrix(top)
	if err != nil {
		return nil, fmt.Errorf("erasure: degenerate Vandermonde block: %w", err)
	}
	a := matMul(v, topInv)
	return &Code{k: k, n: n, matrix: a}, nil
}

// DataShards returns k.
func (c *Code) DataShards() int { return c.k }

// ShardSize returns the per-shard byte length for a payload of origLen.
func (c *Code) ShardSize(origLen int) int {
	if origLen == 0 {
		return 1
	}
	return (origLen + c.k - 1) / c.k
}

// Encode splits data into k equally sized shards (zero-padded) and
// produces the full set of n shards; shards [0, k) are the data itself
// (systematic).
func (c *Code) Encode(data []byte) ([][]byte, error) {
	size := c.ShardSize(len(data))
	shards := make([][]byte, c.n)
	for i := 0; i < c.k; i++ {
		shard := make([]byte, size)
		start := i * size
		if start < len(data) {
			end := start + size
			if end > len(data) {
				end = len(data)
			}
			copy(shard, data[start:end])
		}
		shards[i] = shard
	}
	for r := c.k; r < c.n; r++ {
		out := make([]byte, size)
		for col := 0; col < c.k; col++ {
			mulRowInto(out, shards[col], c.matrix[r][col])
		}
		shards[r] = out
	}
	return shards, nil
}

// Reconstruct recovers the original payload of length origLen from any k
// of the n shards, given as a map from shard index to shard bytes.
func (c *Code) Reconstruct(shards map[int][]byte, origLen int) ([]byte, error) {
	size := c.ShardSize(origLen)
	// Choose k usable shards, lowest indices first (deterministic).
	rows := make([]int, 0, c.k)
	for i := 0; i < c.n && len(rows) < c.k; i++ {
		s, ok := shards[i]
		if !ok {
			continue
		}
		if len(s) != size {
			return nil, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
		rows = append(rows, i)
	}
	if len(rows) < c.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShards, len(rows), c.k)
	}
	// Fast path: all data shards present.
	allData := true
	for i, r := range rows {
		if r != i {
			allData = false
			break
		}
	}
	if !allData {
		// Invert the submatrix of the selected rows and recover the data
		// shards: data = M^-1 · selected.
		sub := make([][]byte, c.k)
		for i, r := range rows {
			sub[i] = append([]byte(nil), c.matrix[r]...)
		}
		inv, err := invertMatrix(sub)
		if err != nil {
			return nil, fmt.Errorf("erasure: singular decode matrix: %w", err)
		}
		data := make([][]byte, c.k)
		for i := 0; i < c.k; i++ {
			out := make([]byte, size)
			for j := 0; j < c.k; j++ {
				mulRowInto(out, shards[rows[j]], inv[i][j])
			}
			data[i] = out
		}
		return joinShards(data, origLen), nil
	}
	data := make([][]byte, c.k)
	for i := 0; i < c.k; i++ {
		data[i] = shards[i]
	}
	return joinShards(data, origLen), nil
}

func joinShards(data [][]byte, origLen int) []byte {
	out := make([]byte, 0, origLen)
	for _, s := range data {
		out = append(out, s...)
	}
	return out[:origLen]
}

// invertMatrix returns the inverse of a square GF(256) matrix via
// Gauss–Jordan elimination. The input is not modified.
func invertMatrix(m [][]byte) ([][]byte, error) {
	k := len(m)
	// Augment [m | I].
	work := make([][]byte, k)
	for i := 0; i < k; i++ {
		if len(m[i]) != k {
			return nil, ErrBadParams
		}
		work[i] = make([]byte, 2*k)
		copy(work[i], m[i])
		work[i][k+i] = 1
	}
	for col := 0; col < k; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < k; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, errors.New("erasure: singular matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		// Normalise pivot row.
		inv := gfInv(work[col][col])
		for c := 0; c < 2*k; c++ {
			work[col][c] = gfMul(work[col][c], inv)
		}
		// Eliminate other rows.
		for r := 0; r < k; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			coeff := work[r][col]
			for c := 0; c < 2*k; c++ {
				work[r][c] ^= gfMul(coeff, work[col][c])
			}
		}
	}
	out := make([][]byte, k)
	for i := 0; i < k; i++ {
		out[i] = work[i][k:]
	}
	return out, nil
}

// matMul multiplies an n×k matrix by a k×k matrix over GF(256).
func matMul(a, b [][]byte) [][]byte {
	n, k := len(a), len(b)
	out := make([][]byte, n)
	for r := 0; r < n; r++ {
		out[r] = make([]byte, k)
		for c := 0; c < k; c++ {
			var acc byte
			for i := 0; i < k; i++ {
				acc ^= gfMul(a[r][i], b[i][c])
			}
			out[r][c] = acc
		}
	}
	return out
}
