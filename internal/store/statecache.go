package store

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// stateCache is the hot-object state cache: a sharded LRU of committed
// key→value records sitting in front of the memtable/SSTable read path, so
// cache-miss re-execution of a read-only method stops paying a full LSM
// lookup (and the db.mu acquisition) per key it touches.
//
// Correctness protocol. An entry (key, val, present, seq) asserts: "the
// committed value of key has not changed since sequence seq". That claim
// stays true because every write batch, while it is being applied under
// db.mu, write-throughs or invalidates the entries of the keys it touches.
// A lookup at snapshot sequence S may therefore serve an entry whenever
// S >= seq. Inserts race with writers: a reader captures the global
// generation counter at the same instant its snapshot sequence is taken
// (under db.mu), and the insert is abandoned if any write has bumped the
// generation since — the reader can no longer prove its value is still
// current. Writers bump the generation *before* touching the shards, so
// the only insert that can slip past a concurrent writer's bump is one
// whose entry the writer then overwrites or invalidates itself.
type stateCache struct {
	gen    atomic.Uint64
	shards []*scShard
	mask   uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

type scShard struct {
	mu       sync.Mutex
	entries  map[string]*scEntry
	lru      *list.List // front = most recent
	capacity int
}

type scEntry struct {
	key     string
	val     []byte
	present bool
	seq     uint64
	elem    *list.Element
}

// stateCacheEntries bounds the state cache: the number of committed
// records it holds across all shards.
const stateCacheEntries = 16 << 10

// scShardCount is the lock-stripe width; reads of distinct hot keys should
// essentially never contend.
const scShardCount = 64

func newStateCache(entries int) *stateCache {
	n := scShardCount
	for n > 1 && entries/n < 8 {
		n >>= 1
	}
	per := entries / n
	if per < 1 {
		per = 1
	}
	sc := &stateCache{shards: make([]*scShard, n), mask: uint64(n - 1)}
	for i := range sc.shards {
		sc.shards[i] = &scShard{
			entries:  make(map[string]*scEntry),
			lru:      list.New(),
			capacity: per,
		}
	}
	return sc
}

// scHash is FNV-1a over the key bytes (inlined to avoid the hash.Hash
// allocation on this very hot path).
func scHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (sc *stateCache) shardFor(key []byte) *scShard {
	return sc.shards[scHash(key)&sc.mask]
}

// lookup serves key at snapshot sequence seq. ok reports whether the cache
// could answer at all; on ok, present distinguishes a live value from a
// cached tombstone/absence. The returned slice is a copy.
func (sc *stateCache) lookup(key []byte, seq uint64) (val []byte, present, ok bool) {
	s := sc.shardFor(key)
	s.mu.Lock()
	e, found := s.entries[string(key)] // no alloc: map lookup special case
	if !found || seq < e.seq {
		s.mu.Unlock()
		sc.misses.Add(1)
		return nil, false, false
	}
	s.lru.MoveToFront(e.elem)
	present = e.present
	if present {
		val = append([]byte(nil), e.val...)
	}
	s.mu.Unlock()
	sc.hits.Add(1)
	return val, present, true
}

// visit is lookup without the copy: on a hit, fn observes the cached
// value in place under the shard lock. fn must not retain or mutate the
// slice. For latest-state reads only (seq condition as in lookup with
// seq = ^0: any live entry is valid).
func (sc *stateCache) visit(key []byte, fn func(val []byte, present bool)) bool {
	s := sc.shardFor(key)
	s.mu.Lock()
	e, found := s.entries[string(key)]
	if !found {
		s.mu.Unlock()
		sc.misses.Add(1)
		return false
	}
	s.lru.MoveToFront(e.elem)
	fn(e.val, e.present)
	s.mu.Unlock()
	sc.hits.Add(1)
	return true
}

// insert records a value read at snapshot sequence seq, but only if no
// write has committed since gen was captured (alongside seq, under db.mu).
// val is copied.
func (sc *stateCache) insert(key, val []byte, present bool, seq, gen uint64) {
	s := sc.shardFor(key)
	s.mu.Lock()
	if sc.gen.Load() != gen {
		// A write landed since this value was read; it may be stale.
		s.mu.Unlock()
		return
	}
	k := string(key)
	if e, ok := s.entries[k]; ok {
		e.val = append(e.val[:0], val...)
		e.present = present
		e.seq = seq
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		return
	}
	e := &scEntry{key: k, val: append([]byte(nil), val...), present: present, seq: seq}
	e.elem = s.lru.PushFront(e)
	s.entries[k] = e
	for len(s.entries) > s.capacity {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*scEntry)
		s.lru.Remove(back)
		delete(s.entries, victim.key)
	}
	s.mu.Unlock()
}

// applyBatch write-throughs a committed batch: entries for keys the batch
// touches are updated in place (or marked absent for deletes) with the
// record's commit sequence, keeping hot keys warm across writes. Keys not
// already cached are left alone — a write is not evidence of read heat.
// Must be called with db.mu held, before lastSeq is advanced past the
// batch, so no reader can pair the new sequence with a stale entry. The
// generation bump comes first so racing inserts of now-stale reads abort.
func (sc *stateCache) applyBatch(b *Batch) {
	sc.gen.Add(1)
	seq := b.startSeq
	_ = b.ForEach(func(kind byte, key, value []byte) error {
		s := sc.shardFor(key)
		s.mu.Lock()
		if e, ok := s.entries[string(key)]; ok {
			if kind == byte(kindSet) {
				e.val = append(e.val[:0], value...)
				e.present = true
			} else {
				e.val = e.val[:0]
				e.present = false
			}
			e.seq = seq
		}
		s.mu.Unlock()
		seq++
		return nil
	})
}

// stats returns cumulative hit/miss counts.
func (sc *stateCache) stats() (hits, misses uint64) {
	return sc.hits.Load(), sc.misses.Load()
}
