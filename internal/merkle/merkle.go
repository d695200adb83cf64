// Package merkle implements Merkle trees with inclusion proofs over a
// fixed leaf set. ICC2's reliable-broadcast subprotocol commits to the n
// erasure-coded fragments of a block with a Merkle root, and each
// fragment travels with its inclusion proof, so receivers verify
// fragments individually before echoing them.
package merkle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"icc/internal/crypto/hash"
)

// Tree is a Merkle tree over a fixed number of leaves, padded to a power
// of two with a domain-separated empty-leaf digest.
type Tree struct {
	leafCount int
	// levels[0] is the padded leaf level; levels[len-1] is [root].
	levels [][]hash.Digest
}

// ErrBadProof is returned when proof verification fails structurally.
var ErrBadProof = errors.New("merkle: invalid proof")

// leafDigest binds the leaf data to its index, preventing a proof for
// leaf i from verifying at position j.
func leafDigest(index int, data []byte) hash.Digest {
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(index))
	return hash.Sum(hash.DomainMerkleLeaf, idx[:], data)
}

// emptyLeaf is the padding digest for positions past the leaf count.
func emptyLeaf() hash.Digest {
	return hash.Sum(hash.DomainMerkleLeaf, []byte("merkle-padding"))
}

func inner(l, r hash.Digest) hash.Digest {
	return hash.Sum(hash.DomainMerkleInner, l[:], r[:])
}

// New builds a tree over the given leaves.
func New(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("merkle: no leaves")
	}
	size := 1
	for size < len(leaves) {
		size <<= 1
	}
	level := make([]hash.Digest, size)
	for i, leaf := range leaves {
		level[i] = leafDigest(i, leaf)
	}
	pad := emptyLeaf()
	for i := len(leaves); i < size; i++ {
		level[i] = pad
	}
	t := &Tree{leafCount: len(leaves), levels: [][]hash.Digest{level}}
	for len(level) > 1 {
		next := make([]hash.Digest, len(level)/2)
		for i := range next {
			next[i] = inner(level[2*i], level[2*i+1])
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the tree root.
func (t *Tree) Root() hash.Digest { return t.levels[len(t.levels)-1][0] }

// Proof returns the sibling path for leaf index i, bottom-up.
func (t *Tree) Proof(i int) ([]hash.Digest, error) {
	if i < 0 || i >= t.leafCount {
		return nil, fmt.Errorf("merkle: leaf index %d out of range", i)
	}
	proof := make([]hash.Digest, 0, len(t.levels)-1)
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		proof = append(proof, t.levels[lvl][idx^1])
		idx >>= 1
	}
	return proof, nil
}

// Verify checks that data is the leaf at position index of a tree with
// the given root and total leaf count, using the sibling path proof.
func Verify(root hash.Digest, data []byte, index, leafCount int, proof []hash.Digest) error {
	if index < 0 || index >= leafCount || leafCount < 1 {
		return fmt.Errorf("%w: index out of range", ErrBadProof)
	}
	// The tree is padded to 2^depth leaves, the least power of two that
	// holds leafCount; counted in bits, since doubling up to a leafCount
	// past 2^62 overflows.
	depth := bits.Len(uint(leafCount - 1))
	if len(proof) != depth {
		return fmt.Errorf("%w: proof length %d, want %d", ErrBadProof, len(proof), depth)
	}
	acc := leafDigest(index, data)
	idx := index
	for _, sib := range proof {
		if idx&1 == 0 {
			acc = inner(acc, sib)
		} else {
			acc = inner(sib, acc)
		}
		idx >>= 1
	}
	if acc != root {
		return fmt.Errorf("%w: root mismatch", ErrBadProof)
	}
	return nil
}
