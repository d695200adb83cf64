package merkle

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"icc/internal/crypto/hash"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestProofVerifyAllLeaves(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 40} {
		ls := leaves(n)
		tree, err := New(ls)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			proof, err := tree.Proof(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tree.Root(), ls[i], i, n, proof); err != nil {
				t.Fatalf("n=%d leaf %d: %v", n, i, err)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	ls := leaves(8)
	tree, _ := New(ls)
	proof, _ := tree.Proof(3)
	if Verify(tree.Root(), []byte("tampered"), 3, 8, proof) == nil {
		t.Fatal("tampered leaf verified")
	}
}

func TestVerifyRejectsWrongIndex(t *testing.T) {
	ls := leaves(8)
	tree, _ := New(ls)
	proof, _ := tree.Proof(3)
	// Same data, same proof, different claimed index must fail (index is
	// bound into the leaf digest).
	if Verify(tree.Root(), ls[3], 2, 8, proof) == nil {
		t.Fatal("proof verified at wrong index")
	}
	if Verify(tree.Root(), ls[3], -1, 8, proof) == nil {
		t.Fatal("negative index verified")
	}
	if Verify(tree.Root(), ls[3], 9, 8, proof) == nil {
		t.Fatal("out-of-range index verified")
	}
}

func TestVerifyRejectsWrongProofLength(t *testing.T) {
	ls := leaves(8)
	tree, _ := New(ls)
	proof, _ := tree.Proof(3)
	if Verify(tree.Root(), ls[3], 3, 8, proof[:2]) == nil {
		t.Fatal("short proof verified")
	}
	if Verify(tree.Root(), ls[3], 3, 8, append(proof, proof[0])) == nil {
		t.Fatal("long proof verified")
	}
}

func TestVerifyRejectsCrossTree(t *testing.T) {
	a, _ := New(leaves(8))
	bLeaves := leaves(8)
	bLeaves[5] = []byte("different")
	b, _ := New(bLeaves)
	proof, _ := a.Proof(5)
	if Verify(b.Root(), leaves(8)[5], 5, 8, proof) == nil {
		t.Fatal("proof verified under another tree's root")
	}
}

func TestSingleLeaf(t *testing.T) {
	tree, err := New([][]byte{[]byte("only")})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Proof(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) != 0 {
		t.Fatalf("single-leaf proof length %d", len(proof))
	}
	if err := Verify(tree.Root(), []byte("only"), 0, 1, proof); err != nil {
		t.Fatal(err)
	}
}

func TestProofIndexValidation(t *testing.T) {
	tree, _ := New(leaves(4))
	if _, err := tree.Proof(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := tree.Proof(4); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("empty tree accepted")
	}
}

func TestQuickRandomTrees(t *testing.T) {
	f := func(data [][]byte, pick uint8) bool {
		if len(data) == 0 {
			return true
		}
		tree, err := New(data)
		if err != nil {
			return false
		}
		i := int(pick) % len(data)
		proof, err := tree.Proof(i)
		if err != nil {
			return false
		}
		return Verify(tree.Root(), data[i], i, len(data), proof) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild40Leaves64KB(b *testing.B) {
	ls := make([][]byte, 40)
	for i := range ls {
		ls[i] = make([]byte, 64<<10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(ls); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzMerkleVerify builds a tree over fuzz-chosen leaves and checks Verify
// on a valid fragment with its data, index, leaf count and proof mutated
// by the fuzzer: Verify never panics or hangs, accepts the unmutated
// fragment, and accepts only data that is the leaf at its index.
func FuzzMerkleVerify(f *testing.F) {
	f.Add([]byte("fragment"), uint8(7), uint8(3), false, []byte(nil), int64(0), int64(0), uint16(0), int8(0))
	f.Add([]byte("fragment"), uint8(39), uint8(38), true, []byte("fragment\x26"), int64(0), int64(0), uint16(0), int8(0))
	f.Add([]byte("fragment"), uint8(4), uint8(1), false, []byte(nil), int64(-1), int64(3), uint16(300), int8(-1))
	f.Add([]byte{}, uint8(0), uint8(0), false, []byte(nil), int64(1), int64(1<<62), uint16(0), int8(62))
	f.Fuzz(func(t *testing.T, seed []byte, count, at uint8, forge bool, forged []byte, dIndex, dCount int64, flip uint16, dLen int8) {
		n := 1 + int(count)%64
		ls := make([][]byte, n)
		for i := range ls {
			ls[i] = append(append([]byte(nil), seed...), byte(i))
		}
		tree, err := New(ls)
		if err != nil {
			t.Fatal(err)
		}
		i := int(at) % n
		proof, err := tree.Proof(i)
		if err != nil {
			t.Fatal(err)
		}
		data := ls[i]
		if forge {
			data = forged
		}
		index, leafCount := i+int(dIndex), n+int(dCount)
		if dLen < 0 {
			proof = proof[:max(0, len(proof)+int(dLen))]
		} else {
			proof = append(proof, make([]hash.Digest, dLen)...)
		}
		if bit := int(flip) - 1; bit >= 0 && len(proof) > 0 {
			proof[bit/256%len(proof)][bit%256/8] ^= 1 << (bit % 8)
		}
		err = Verify(tree.Root(), data, index, leafCount, proof)
		if intact := bytes.Equal(data, ls[i]) && index == i && leafCount == n && dLen == 0 && flip == 0; intact && err != nil {
			t.Fatalf("leaf %d of %d refused: %v", i, n, err)
		}
		if err == nil && (index < 0 || index >= n || !bytes.Equal(data, ls[index])) {
			t.Fatalf("accepted %x at index %d of a %d-leaf tree (leaf count %d)", data, index, n, leafCount)
		}
	})
}
