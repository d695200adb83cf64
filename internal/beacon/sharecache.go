package beacon

import (
	"bytes"

	"icc/internal/types"
)

// DefaultShareCacheSize bounds the own-share cache when the owner does
// not choose a size. Sized to cover a deep catch-up window (several
// batches of 128 rounds, core's resyncBatch) with room to spare; one
// cached share is a round number plus ~100 bytes of encoded share material.
const DefaultShareCacheSize = 1024

// shareCache is a bounded LRU of this party's own beacon shares, keyed
// by round. Signing a share is three from-scratch EC scalar
// multiplications (a third of a millisecond; a BLS share is ten times
// that), yet a party is asked for the same shares over and over: once
// when it enters a round, and then once per lagging peer per catch-up
// batch that covers the round. The cache makes every request after the
// first a map lookup.
//
// It is NOT safe for concurrent use; the owning beacon serialises
// access under its own lock.
type shareCache struct {
	cap     int
	entries map[types.Round]*shareEntry
	// Intrusive doubly-linked LRU list; head = most recent.
	head, tail *shareEntry
}

type shareEntry struct {
	round      types.Round
	share      *types.BeaconShare
	prev, next *shareEntry
}

// newShareCache builds a cache with the given capacity: 0 selects
// DefaultShareCacheSize, negative disables caching entirely (every get
// misses, every put is dropped).
func newShareCache(capacity int) *shareCache {
	if capacity == 0 {
		capacity = DefaultShareCacheSize
	}
	if capacity < 0 {
		capacity = 0
	}
	return &shareCache{cap: capacity, entries: make(map[types.Round]*shareEntry)}
}

// get returns the cached share for round k, refreshing its recency. The
// returned value is a shallow copy: callers own and may mutate the
// struct (the share bytes stay shared and are treated as immutable).
func (c *shareCache) get(k types.Round) (*types.BeaconShare, bool) {
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.moveToFront(e)
	cp := *e.share
	return &cp, true
}

// holds reports whether sh is byte-identical to the cached share of its
// round: the beacon trusts such a share as its own work and skips
// verifying it. Recency is left alone.
func (c *shareCache) holds(sh *types.BeaconShare) bool {
	e, ok := c.entries[sh.Round]
	return ok && e.share.Signer == sh.Signer && bytes.Equal(e.share.Share, sh.Share)
}

// put inserts (or refreshes) the share for round k, evicting the least
// recently used entry when full. A shallow copy is stored so later
// mutation of the caller's struct cannot corrupt the cache.
func (c *shareCache) put(k types.Round, sh *types.BeaconShare) {
	if c.cap == 0 {
		return
	}
	cp := *sh
	if e, ok := c.entries[k]; ok {
		e.share = &cp
		c.moveToFront(e)
		return
	}
	if len(c.entries) >= c.cap {
		c.evict(c.tail)
	}
	e := &shareEntry{round: k, share: &cp}
	c.entries[k] = e
	c.pushFront(e)
}

// pruneBefore drops every entry for a round below the watermark.
func (c *shareCache) pruneBefore(before types.Round) {
	for e := c.tail; e != nil; {
		prev := e.prev
		if e.round < before {
			c.evict(e)
		}
		e = prev
	}
}

// len reports the number of cached shares.
func (c *shareCache) len() int { return len(c.entries) }

func (c *shareCache) pushFront(e *shareEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *shareCache) unlink(e *shareEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *shareCache) moveToFront(e *shareEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *shareCache) evict(e *shareEntry) {
	if e == nil {
		return
	}
	c.unlink(e)
	delete(c.entries, e.round)
}
