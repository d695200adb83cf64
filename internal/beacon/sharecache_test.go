package beacon

import (
	"bytes"
	"testing"

	"icc/internal/types"
)

func TestShareForRoundCachesOwnShare(t *testing.T) {
	bs := cluster(t, 4)
	advance(t, bs, 1)
	first, err := bs[0].ShareForRound(2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := bs[0].ShareForRound(2)
	if err != nil {
		t.Fatal(err)
	}
	// thresig.Sign draws fresh randomness, so identical bytes prove the
	// second call was served from the cache, not re-signed.
	if !bytes.Equal(first.Share, again.Share) {
		t.Fatal("repeated ShareForRound re-signed instead of serving the cache")
	}
	if bs[0].CachedShares() == 0 {
		t.Fatal("cache empty after ShareForRound")
	}
}

func TestShareCacheEviction(t *testing.T) {
	bs := cluster(t, 4)
	bs[0].SetShareCacheSize(2)
	for k := types.Round(1); k <= 3; k++ {
		advance(t, bs, k)
		if _, err := bs[0].ShareForRound(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := bs[0].CachedShares(); got != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", got)
	}
	// Round 1 is least recently used and must have been evicted.
	if _, ok := bs[0].CachedShareForRound(1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := bs[0].CachedShareForRound(3); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestShareCacheDisabled(t *testing.T) {
	bs := cluster(t, 4)
	bs[0].SetShareCacheSize(-1)
	advance(t, bs, 1)
	if _, err := bs[0].ShareForRound(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := bs[0].CachedShareForRound(2); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if got := bs[0].CachedShares(); got != 0 {
		t.Fatalf("disabled cache holds %d entries", got)
	}
}

func TestSimulatedShareCache(t *testing.T) {
	s := NewSimulated(4, 2, []byte("genesis"))
	if _, ok := s.CachedShareForRound(1); ok {
		t.Fatal("cache hit before signing")
	}
	sh, err := s.ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := s.CachedShareForRound(1)
	if !ok || cached.Round != sh.Round || cached.Signer != 2 {
		t.Fatal("simulated cache miss after ShareForRound")
	}
	s.SetShareCacheSize(-1)
	if _, ok := s.CachedShareForRound(1); ok {
		t.Fatal("hit after cache disabled")
	}
}

func TestCachedShareIsDefensiveCopy(t *testing.T) {
	bs := cluster(t, 4)
	first, err := bs[0].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	first.Signer = 99 // caller mutation must not corrupt the cache
	again, err := bs[0].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Signer != bs[0].self {
		t.Fatal("caller mutation leaked into the cache")
	}
}
