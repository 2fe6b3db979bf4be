// Package cache implements LambdaStore's consistent function-result cache
// (paper §4.2.2). For a deterministic read-only method, the storage node
// records the method's output together with a hash of its input and its
// read set (the keys it read and hashes of their values). A later identical
// invocation is answered from the cache only after re-validating every read
// dependency against the current committed state — which the node can do
// cheaply and consistently precisely because data and compute are
// co-located. Commits to an object additionally invalidate its entries
// proactively.
//
// The cache is sharded by object ID: every entry for an object lives in
// exactly one shard, so InvalidateObject touches a single shard lock and
// concurrent readers of different objects never contend.
package cache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// HashValue produces the value fingerprint stored in read sets. A presence
// bit is mixed in so "absent" and "present but empty" differ.
func HashValue(value []byte, present bool) uint64 {
	h := fnv.New64a()
	if present {
		h.Write([]byte{1})
		h.Write(value)
	} else {
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// HashArgs fingerprints an invocation's arguments (the "hash of its input").
func HashArgs(method string, args [][]byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(method))
	for _, a := range args {
		var lenBuf [8]byte
		n := len(a)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write(a)
	}
	return h.Sum64()
}

// ReadDep is one entry of a cached invocation's read set.
type ReadDep struct {
	Key       []byte
	ValueHash uint64
}

// Entry is one cached result.
type Entry struct {
	Result  []byte
	ReadSet []ReadDep

	key     entryKey
	element *list.Element
}

// entryKey identifies a cached invocation.
type entryKey struct {
	object   uint64
	method   string
	argsHash uint64
}

// Stats counts cache outcomes for the benchmark harness and /metrics.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Validations uint64 // entries found but re-validated away
	Stores      uint64
	Evictions   uint64
	// Bypass counts invocations that were not cache-eligible (mutating,
	// non-deterministic, or poisoned by time/rand/scans mid-run).
	Bypass uint64
	// Invalidations counts entries dropped by proactive InvalidateObject.
	Invalidations uint64
}

// DefaultShards is the shard count used by New; it must be a power of two.
// 32 comfortably exceeds the core counts this runs on while keeping
// per-shard LRU lists long enough to stay useful.
const DefaultShards = 32

// shard is one lock-striped partition of the cache. All entries for a given
// object hash to the same shard, which is what keeps InvalidateObject a
// single-lock operation.
type shard struct {
	mu       sync.Mutex
	entries  map[entryKey]*Entry
	byObject map[uint64]map[entryKey]struct{}
	lru      *list.List // front = most recent
	capacity int
	stats    Stats
}

// Cache is a bounded, LRU-evicting consistent result cache. Safe for
// concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64 // len(shards)-1; len is always a power of two
	bypass atomic.Uint64
}

// New returns a cache bounded to capacity entries (<=0 means 64k), split
// across DefaultShards shards.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 64 << 10
	}
	n := DefaultShards
	// Tiny caches keep exact global LRU order: splitting a handful of slots
	// across shards would evict by shard occupancy, not recency. Cap the
	// shard count so each shard holds at least 16 entries.
	for n > 1 && capacity/n < 16 {
		n >>= 1
	}
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1)}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[entryKey]*Entry),
			byObject: make(map[uint64]map[entryKey]struct{}),
			lru:      list.New(),
			capacity: per,
		}
	}
	return c
}

// shardFor hashes the object ID to its shard. Fibonacci hashing spreads the
// sequential IDs the runtime allocates evenly across shards.
func (c *Cache) shardFor(object uint64) *shard {
	return c.shards[(object*0x9e3779b97f4a7c15)>>33&c.mask]
}

// Shards reports the shard count (for tests and debug output).
func (c *Cache) Shards() int { return len(c.shards) }

// Lookup finds a cached result for (object, method, argsHash) and validates
// its read set with readHash, which must return the fingerprint of the
// named key's current committed value. It returns (result, true) only if
// every dependency still matches; stale entries are dropped.
func (c *Cache) Lookup(object uint64, method string, argsHash uint64, readHash func(key []byte) uint64) ([]byte, bool) {
	k := entryKey{object: object, method: method, argsHash: argsHash}
	s := c.shardFor(object)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	// Copy the read set out so validation runs without the lock (readHash
	// hits the storage engine).
	deps := e.ReadSet
	result := e.Result
	s.mu.Unlock()

	for _, dep := range deps {
		if readHash(dep.Key) != dep.ValueHash {
			s.mu.Lock()
			s.stats.Validations++
			s.removeLocked(k)
			s.mu.Unlock()
			return nil, false
		}
	}
	s.mu.Lock()
	if cur, ok := s.entries[k]; ok {
		s.lru.MoveToFront(cur.element)
	}
	s.stats.Hits++
	s.mu.Unlock()
	return result, true
}

// Store records a validated result with its read set.
func (c *Cache) Store(object uint64, method string, argsHash uint64, result []byte, readSet []ReadDep) {
	k := entryKey{object: object, method: method, argsHash: argsHash}
	e := &Entry{
		Result:  append([]byte(nil), result...),
		ReadSet: readSet,
		key:     k,
	}
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[k]; ok {
		s.lru.Remove(old.element)
	}
	e.element = s.lru.PushFront(e)
	s.entries[k] = e
	objSet, ok := s.byObject[object]
	if !ok {
		objSet = make(map[entryKey]struct{})
		s.byObject[object] = objSet
	}
	objSet[k] = struct{}{}
	s.stats.Stores++

	for len(s.entries) > s.capacity {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.removeLocked(back.Value.(*Entry).key)
		s.stats.Evictions++
	}
}

// InvalidateObject drops every entry whose invocation ran against object.
// Called on each commit to the object; read-set validation would also catch
// staleness, so this is a proactive fast path. All of an object's entries
// share a shard, so one lock covers the whole invalidation.
func (c *Cache) InvalidateObject(object uint64) {
	s := c.shardFor(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.byObject[object] {
		s.removeLocked(k)
		s.stats.Invalidations++
	}
}

// NoteBypass records an invocation that skipped the cache entirely
// (mutating method, non-deterministic method, or nocache-poisoned run).
func (c *Cache) NoteBypass() {
	c.bypass.Add(1)
}

// removeLocked unlinks an entry from all indexes. Caller holds s.mu.
func (s *shard) removeLocked(k entryKey) {
	e, ok := s.entries[k]
	if !ok {
		return
	}
	delete(s.entries, k)
	s.lru.Remove(e.element)
	if objSet, ok := s.byObject[k.object]; ok {
		delete(objSet, k)
		if len(objSet) == 0 {
			delete(s.byObject, k.object)
		}
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a merged snapshot of the per-shard counters. Shards are
// sampled one at a time — the merge never holds more than one shard lock,
// so a stats scrape cannot stall the whole cache. The snapshot is therefore
// not a single atomic cut, which is fine for monitoring counters.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Validations += st.Validations
		out.Stores += st.Stores
		out.Evictions += st.Evictions
		out.Invalidations += st.Invalidations
	}
	out.Bypass = c.bypass.Load()
	return out
}
