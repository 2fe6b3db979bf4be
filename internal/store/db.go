package store

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lambdastore/internal/telemetry"
)

// DB is an embedded LSM-tree key-value store. All methods are safe for
// concurrent use.
type DB struct {
	dir  string
	opts *Options
	lock *os.File

	mu   sync.Mutex
	cond *sync.Cond // signaled when flush/compaction state changes
	mem  *memtable
	imm  *memtable // frozen memtable being flushed; nil if none
	// writers is the group-commit queue: the head is the current leader,
	// which forms a write group from the queue prefix, performs the WAL
	// I/O for all members with mu released, then completes them and
	// promotes the next head. Guarded by mu.
	writers []*dbWriter
	// writeActive is true while a group leader performs WAL I/O with mu
	// released; WAL rotation (Flush) and Close must wait for it so the
	// log is never swapped out from under an in-flight group.
	writeActive bool
	// groupStreak arms the GroupCommitWait linger (the commit_siblings
	// analog): any multi-member group sets it to groupStreakArm, every
	// solo group decays it by one, and leaders linger only while it is
	// positive. The hysteresis keeps the linger engaged across the solo
	// groups that naturally fall between commit bursts, while strictly
	// sequential workloads decay to zero and never pay the delay.
	groupStreak int
	wal         *walWriter
	walNum      uint64
	immWal      uint64 // WAL number backing imm
	lastSeq     uint64
	nextFile    uint64
	current     *version
	man         *manifest
	snaps       map[uint64]int // snapshot seq -> refcount
	closed      bool
	bgErr       error
	bgActive    bool

	compactPtr [numLevels][]byte // round-robin compaction cursors (user keys)

	tcache *tableCache

	// sc is the hot-object state cache: a sharded LRU
	// of committed key→value records write-through-updated by the commit
	// paths. See statecache.go for the staleness protocol.
	sc *stateCache

	bgWork chan struct{}
	bgQuit chan struct{}
	bgDone chan struct{}

	// metrics holds pre-resolved instruments (nil when Options.Metrics is
	// unset); see dbMetrics.
	metrics *dbMetrics
}

// dbMetrics caches the store's instruments so hot paths skip the registry.
type dbMetrics struct {
	writes      *telemetry.Counter
	walBytes    *telemetry.Counter
	walSyncs    *telemetry.Counter
	flushes     *telemetry.Counter
	compactions *telemetry.Counter
	compactUs   *telemetry.Histogram
	// groupSize records the member count of each committed write group
	// (unit: batches, not time — read the quantiles as counts in µs form).
	groupSize *telemetry.Histogram
	// fsyncUs records the latency of each synced WAL append — the
	// "WAL fsync lag" column of the cluster rollup.
	fsyncUs *telemetry.Histogram
}

func newDBMetrics(reg *telemetry.Registry) *dbMetrics {
	return &dbMetrics{
		writes:      reg.Counter("store.writes"),
		walBytes:    reg.Counter("store.wal_bytes"),
		walSyncs:    reg.Counter("store.wal_syncs"),
		flushes:     reg.Counter("store.flushes"),
		compactions: reg.Counter("store.compactions"),
		compactUs:   reg.Histogram("store.compact"),
		groupSize:   reg.Histogram("wal.group_size"),
		fsyncUs:     reg.Histogram("wal.fsync"),
	}
}

// Open opens (creating if necessary) the database in dir.
func Open(dir string, opts *Options) (*DB, error) {
	opts = opts.sanitize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}

	v, logNum, nextFile, lastSeq, err := loadManifest(dir)
	if err != nil {
		lock.Close()
		return nil, err
	}

	db := &DB{
		dir:      dir,
		opts:     opts,
		lock:     lock,
		mem:      newMemtable(),
		lastSeq:  lastSeq,
		nextFile: nextFile,
		snaps:    make(map[uint64]int),
		tcache:   newTableCache(dir, opts.BlockCacheBytes),
		sc:       newStateCache(stateCacheEntries),
		bgWork:   make(chan struct{}, 1),
		bgQuit:   make(chan struct{}),
		bgDone:   make(chan struct{}),
	}
	if opts.Metrics != nil {
		db.metrics = newDBMetrics(opts.Metrics)
	}
	db.cond = sync.NewCond(&db.mu)
	db.installVersion(v)

	// Replay every WAL at least as new as the manifest's log number.
	logs, err := findLogs(dir, logNum)
	if err != nil {
		lock.Close()
		return nil, err
	}
	for _, num := range logs {
		err := replayWAL(walPath(dir, num), func(record []byte) error {
			b, err := decodeBatch(record)
			if err != nil {
				return err
			}
			if err := b.apply(db.mem); err != nil {
				return err
			}
			if end := b.startSeq + uint64(b.count) - 1; end > db.lastSeq {
				db.lastSeq = end
			}
			return nil
		})
		if err != nil {
			lock.Close()
			return nil, err
		}
		if num >= db.nextFile {
			db.nextFile = num + 1
		}
	}

	// Start a fresh WAL for the recovered memtable contents plus new writes.
	db.walNum = db.nextFile
	db.nextFile++
	db.wal, err = newWALWriter(walPath(dir, db.walNum), dir)
	if err != nil {
		lock.Close()
		return nil, err
	}
	// Re-log recovered entries so the old logs can be dropped.
	if db.mem.len() > 0 {
		if err := db.relogMemtable(); err != nil {
			lock.Close()
			return nil, err
		}
	}

	// Rewrite the manifest as a snapshot and point it at the new WAL.
	db.man, err = createManifest(dir, snapshotEdit(v, db.walNum, db.nextFile, db.lastSeq))
	if err != nil {
		lock.Close()
		return nil, err
	}

	// Old logs are now superseded.
	for _, num := range logs {
		if num != db.walNum {
			os.Remove(walPath(dir, num))
		}
	}

	go db.backgroundLoop()
	return db, nil
}

// relogMemtable rewrites the recovered memtable into the fresh WAL as one
// batch so recovery is idempotent across repeated crashes.
func (db *DB) relogMemtable() error {
	b := NewBatch()
	it := db.mem.iterator()
	var minSeq uint64 = maxSequence
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		if ik.seq() < minSeq {
			minSeq = ik.seq()
		}
	}
	// Preserve ordering: replay newest-last. The memtable iterates user-key
	// order with newest versions first, so collect and sort by seq.
	type rec struct {
		seq  uint64
		kind keyKind
		key  []byte
		val  []byte
	}
	var recs []rec
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		recs = append(recs, rec{ik.seq(), ik.kind(), append([]byte(nil), ik.userKey()...), append([]byte(nil), it.Value()...)})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for _, r := range recs {
		if r.kind == kindDelete {
			b.Delete(r.key)
		} else {
			b.Put(r.key, r.val)
		}
	}
	if b.Empty() {
		return nil
	}
	b.startSeq = minSeq
	return db.wal.append(b.encode(nil), true)
}

// acquireDirLock takes an exclusive flock on dir/LOCK, preventing two
// processes from opening the same database.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(dir+"/LOCK", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: database locked by another process: %w", err)
	}
	return f, nil
}

// findLogs returns WAL file numbers >= minNum in ascending order.
func findLogs(dir string, minNum uint64) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
		if err != nil {
			continue
		}
		if n >= minNum {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// Put stores key -> value.
func (db *DB) Put(key, value []byte) error {
	b := NewBatch()
	b.Put(key, value)
	return db.Write(b)
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	b := NewBatch()
	b.Delete(key)
	return db.Write(b)
}

// dbWriter is one pending Write in the group-commit queue. The ready
// channel (buffered, capacity 1) is signaled when the writer is promoted to
// the head of the queue or completed by a group leader.
type dbWriter struct {
	batch *Batch
	err   error
	done  bool
	ready chan struct{}
}

// maxGroupBytes bounds the encoded size of one write group so a burst of
// large batches cannot turn into one unbounded WAL write. The first batch
// always commits regardless of size.
const maxGroupBytes = 1 << 20

// Write applies the batch atomically: it is logged to the WAL, then
// published to readers in one step.
//
// Concurrent Writes form write groups (LevelDB-style group commit): each
// caller joins a queue, the queue head becomes the leader and performs one
// WAL append — and, with SyncWrites, one fsync — covering every member,
// then completes them all. Durability is unchanged: a Write does not return
// success until its records are (group-)synced and applied.
func (db *DB) Write(b *Batch) error {
	if b.Empty() {
		return nil
	}
	w := &dbWriter{batch: b, ready: make(chan struct{}, 1)}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.writers = append(db.writers, w)
	for !w.done && db.writers[0] != w {
		db.mu.Unlock()
		<-w.ready
		db.mu.Lock()
	}
	if !w.done {
		// w is the queue head: lead a group commit. commitGroup completes
		// w (and any members it grouped with it) before returning.
		db.lingerForGroup()
		db.commitGroup()
	}
	db.mu.Unlock()
	return w.err
}

// groupWaitTarget is the queue depth at which a lingering leader stops
// waiting and commits: past this point the fsync is already amortized
// well enough that further delay only adds latency.
const groupWaitTarget = 8

// groupStreakArm is the number of consecutive single-member groups after
// which the GroupCommitWait linger disarms. One multi-member group re-arms
// it fully.
const groupStreakArm = 16

// lingerForGroup implements the GroupCommitWait delay: the queue head
// briefly holds off its (fsync'd) WAL write so concurrent committers can
// join the group, turning N fsyncs into one. The delay engages only when
// writer concurrency is evident — another writer is already queued, or the
// previous group had several members — so sequential workloads commit
// immediately. Called and returns with db.mu held; the caller is the queue
// head, which nothing else can complete, so the identity of db.writers[0]
// is stable across the unlocked sleeps.
func (db *DB) lingerForGroup() {
	wait := db.opts.GroupCommitWait
	if wait <= 0 || !db.opts.SyncWrites || db.closed {
		return
	}
	if len(db.writers) < 2 && db.groupStreak == 0 {
		return
	}
	slice := wait / 4
	if slice <= 0 {
		slice = wait
	}
	deadline := time.Now().Add(wait)
	for len(db.writers) < groupWaitTarget && !db.closed {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		if remaining > slice {
			remaining = slice
		}
		db.mu.Unlock()
		time.Sleep(remaining)
		db.mu.Lock()
	}
}

// commitGroup runs on the writer at the head of db.writers. It forms a
// group from a prefix of the queue, pre-assigns sequence numbers, performs
// the WAL I/O for the whole group with db.mu released (writeActive fences
// WAL rotation meanwhile), applies the batches, completes the members, and
// promotes the next queue head. Called and returns with db.mu held.
func (db *DB) commitGroup() {
	if db.closed {
		db.failAllWriters(ErrClosed)
		return
	}
	if err := db.makeRoomForWrite(); err != nil {
		// Backpressure errors (sticky background error, close during a
		// stall) apply to every queued writer equally: fail them all
		// rather than replaying the same failure one head at a time.
		db.failAllWriters(err)
		return
	}
	// Form the group: a prefix of the queue, bounded by encoded bytes.
	// Sequence numbers are assigned now, consecutively, but lastSeq is only
	// advanced after the WAL write succeeds so readers never observe
	// sequences that might not commit.
	group := db.writers[:1]
	records := make([][]byte, 0, len(db.writers))
	total := 0
	seq := db.lastSeq
	for i, w := range db.writers {
		if i > 0 && total >= maxGroupBytes {
			break
		}
		w.batch.startSeq = seq + 1
		seq += uint64(w.batch.count)
		rec := w.batch.encode(nil)
		records = append(records, rec)
		total += len(rec)
		group = db.writers[:i+1]
	}
	if len(group) > 1 {
		db.groupStreak = groupStreakArm
	} else if db.groupStreak > 0 {
		db.groupStreak--
	}

	sync := db.opts.SyncWrites
	wal := db.wal
	db.writeActive = true
	db.mu.Unlock()
	var syncStart time.Time
	if db.metrics != nil && sync {
		syncStart = time.Now()
	}
	err := wal.appendAll(records, sync)
	db.mu.Lock()
	db.writeActive = false

	if err == nil {
		for i, w := range group {
			if aerr := w.batch.apply(db.mem); aerr != nil {
				// Apply failures are per-member; sequence space was
				// consumed either way, so later members stay consistent.
				w.err = aerr
			}
			// Write-through before lastSeq advances, so no reader can
			// pair the new sequence with a stale cached record.
			db.sc.applyBatch(w.batch)
			if m := db.metrics; m != nil {
				m.writes.Inc()
				m.walBytes.Add(uint64(len(records[i])))
			}
		}
		db.lastSeq = seq
		if m := db.metrics; m != nil {
			if sync {
				m.walSyncs.Inc()
				m.fsyncUs.Record(time.Since(syncStart))
			}
			m.groupSize.Record(time.Duration(len(group)) * time.Microsecond)
		}
	}

	// Complete the group and promote the next head.
	db.writers = db.writers[len(group):]
	for _, w := range group {
		if err != nil {
			w.err = err
		}
		w.done = true
		select {
		case w.ready <- struct{}{}:
		default:
		}
	}
	if len(db.writers) > 0 {
		select {
		case db.writers[0].ready <- struct{}{}:
		default:
		}
	}
	db.cond.Broadcast()
}

// failAllWriters completes every queued writer with err and clears the
// queue. Called with db.mu held.
func (db *DB) failAllWriters(err error) {
	for _, w := range db.writers {
		w.err = err
		w.done = true
		select {
		case w.ready <- struct{}{}:
		default:
		}
	}
	db.writers = db.writers[:0]
	db.cond.Broadcast()
}

// makeRoomForWrite rotates the memtable when full and applies write stalls,
// mirroring LevelDB's backpressure. Called with db.mu held.
func (db *DB) makeRoomForWrite() error {
	for {
		switch {
		case db.bgErr != nil:
			return db.bgErr
		case db.mem.approximateBytes() < db.opts.MemtableBytes:
			return nil
		case db.imm != nil:
			// Previous flush still in progress: wait.
			db.cond.Wait()
			if db.closed {
				return ErrClosed
			}
		case len(db.current.levels[0]) >= db.opts.L0StopWritesTrigger:
			db.cond.Wait()
			if db.closed {
				return ErrClosed
			}
		default:
			// Freeze the memtable and start a new WAL.
			newNum := db.nextFile
			db.nextFile++
			wal, err := newWALWriter(walPath(db.dir, newNum), db.dir)
			if err != nil {
				return err
			}
			db.wal.close()
			db.imm = db.mem
			db.immWal = db.walNum
			db.mem = newMemtable()
			db.wal = wal
			db.walNum = newNum
			db.scheduleBackground()
		}
	}
}

// scheduleBackground nudges the background loop. Called with db.mu held.
func (db *DB) scheduleBackground() {
	select {
	case db.bgWork <- struct{}{}:
	default:
	}
}

// Get returns the value for key at the latest committed state.
func (db *DB) Get(key []byte) ([]byte, error) {
	// State-cache fast path: any live entry is valid for the latest state
	// (entries are write-through-updated before lastSeq advances), and the
	// hit avoids db.mu entirely.
	if val, present, ok := db.sc.lookup(key, ^uint64(0)); ok {
		if !present {
			return nil, ErrNotFound
		}
		return val, nil
	}
	db.mu.Lock()
	seq, gen := db.lastSeq, db.sc.gen.Load()
	db.mu.Unlock()
	return db.getAtFill(key, seq, gen)
}

// VisitLatest calls fn with the current committed value of key (present
// false when absent), avoiding the defensive copy Get makes: on a
// state-cache hit fn observes the cached bytes in place, under the
// cache's shard lock. fn must not retain or mutate the slice. This is the
// result-cache validation path, which only hashes the value.
func (db *DB) VisitLatest(key []byte, fn func(value []byte, present bool)) error {
	if db.sc.visit(key, fn) {
		return nil
	}
	// Miss: take the regular fill path (which populates the state cache)
	// without re-probing the cache.
	db.mu.Lock()
	seq, gen := db.lastSeq, db.sc.gen.Load()
	db.mu.Unlock()
	v, err := db.getAtFill(key, seq, gen)
	if err != nil {
		if err == ErrNotFound {
			fn(nil, false)
			return nil
		}
		return err
	}
	fn(v, true)
	return nil
}

// getAt reads key as of snapshot seq. gen is the state-cache generation
// captured together with seq (under db.mu), used to gate miss-path
// population of the state cache.
func (db *DB) getAt(key []byte, seq, gen uint64) ([]byte, error) {
	if val, present, ok := db.sc.lookup(key, seq); ok {
		if !present {
			return nil, ErrNotFound
		}
		return val, nil
	}
	return db.getAtFill(key, seq, gen)
}

// getAtFill performs the full lookup and populates the state cache when the
// captured generation is still current (no commit raced the read).
func (db *DB) getAtFill(key []byte, seq, gen uint64) ([]byte, error) {
	val, err := db.getAtSlow(key, seq)
	if err == nil {
		db.sc.insert(key, val, true, seq, gen)
	} else if err == ErrNotFound {
		db.sc.insert(key, nil, false, seq, gen)
	}
	return val, err
}

// getAtSlow is the full LSM lookup: memtables, then L0 newest-first, then
// binary search per deeper level.
func (db *DB) getAtSlow(key []byte, seq uint64) ([]byte, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	mem, imm, v := db.mem, db.imm, db.pinCurrent()
	db.mu.Unlock()
	defer db.unrefVersion(v)

	if val, deleted, present := mem.get(key, seq); present {
		if deleted {
			return nil, ErrNotFound
		}
		return append([]byte(nil), val...), nil
	}
	if imm != nil {
		if val, deleted, present := imm.get(key, seq); present {
			if deleted {
				return nil, ErrNotFound
			}
			return append([]byte(nil), val...), nil
		}
	}

	lookup := makeInternalKey(nil, key, seq, kindSeek)

	// L0: overlapping tables, newest first.
	for _, t := range v.levels[0] {
		if !t.overlaps(key, key) {
			continue
		}
		val, done, err := db.tableGet(t, lookup)
		if done || err != nil {
			return val, err
		}
	}
	// Deeper levels: binary search by internal key so versions of a user
	// key that straddle a table boundary are found in the correct file.
	for level := 1; level < numLevels; level++ {
		tables := v.levels[level]
		idx := sort.Search(len(tables), func(i int) bool {
			return compareInternal(tables[i].largest, lookup) >= 0
		})
		if idx >= len(tables) {
			continue
		}
		if bytes.Compare(tables[idx].smallest.userKey(), key) > 0 {
			continue
		}
		val, done, err := db.tableGet(tables[idx], lookup)
		if done || err != nil {
			return val, err
		}
	}
	return nil, ErrNotFound
}

// tableGet probes one table. done=true means the lookup is resolved (value
// or ErrNotFound via tombstone).
func (db *DB) tableGet(t *tableMeta, lookup internalKey) (val []byte, done bool, err error) {
	r, release, err := db.tcache.acquire(t.fileNum)
	if err != nil {
		return nil, true, err
	}
	defer release()
	ik, v, present, err := r.get(lookup)
	if err != nil {
		return nil, true, err
	}
	if !present {
		return nil, false, nil
	}
	if ik.kind() == kindDelete {
		return nil, true, ErrNotFound
	}
	return v, true, nil
}

// Snapshot pins a consistent view of the database.
type Snapshot struct {
	db  *DB
	seq uint64
	// gen is the state-cache generation at snapshot creation; reads through
	// the snapshot may populate the state cache only while it is unchanged.
	gen uint64
}

// GetSnapshot returns a handle to the current state; callers must Release
// it so compaction can reclaim shadowed versions.
func (db *DB) GetSnapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.snaps[db.lastSeq]++
	return &Snapshot{db: db, seq: db.lastSeq, gen: db.sc.gen.Load()}
}

// Get reads key at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) { return s.db.getAt(key, s.seq, s.gen) }

// Seq exposes the snapshot's sequence number (used by tests).
func (s *Snapshot) Seq() uint64 { return s.seq }

// Release unpins the snapshot. Idempotent.
func (s *Snapshot) Release() {
	if s.db == nil {
		return
	}
	s.db.mu.Lock()
	if n, ok := s.db.snaps[s.seq]; ok {
		if n <= 1 {
			delete(s.db.snaps, s.seq)
		} else {
			s.db.snaps[s.seq] = n - 1
		}
	}
	s.db.mu.Unlock()
	s.db = nil
}

// smallestSnapshot returns the lowest pinned sequence (or lastSeq). Called
// with db.mu held.
func (db *DB) smallestSnapshot() uint64 {
	smallest := db.lastSeq
	for seq := range db.snaps {
		if seq < smallest {
			smallest = seq
		}
	}
	return smallest
}

// NewIterator returns a cursor over the latest committed state.
func (db *DB) NewIterator() (*Iterator, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	seq := db.lastSeq
	db.snaps[seq]++
	db.mu.Unlock()
	snap := &Snapshot{db: db, seq: seq}
	it, err := db.newIteratorAt(seq)
	if err != nil {
		snap.Release()
		return nil, err
	}
	inner := it.closer
	it.closer = func() {
		if inner != nil {
			inner()
		}
		snap.Release()
	}
	return it, nil
}

// NewSnapshotIterator returns a cursor over the snapshot's state.
func (s *Snapshot) NewIterator() (*Iterator, error) {
	return s.db.newIteratorAt(s.seq)
}

// newIteratorAt assembles the merged iterator stack for sequence seq.
func (db *DB) newIteratorAt(seq uint64) (*Iterator, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	mem, imm, v := db.mem, db.imm, db.pinCurrent()
	db.mu.Unlock()

	var iters []internalIterator
	iters = append(iters, mem.iterator())
	if imm != nil {
		iters = append(iters, imm.iterator())
	}
	// The pinned version keeps every table file on disk for the iterator's
	// lifetime; refs holds the L0 readers it opened up front.
	var refs []func()
	unpin := func() {
		for _, c := range refs {
			c()
		}
		db.unrefVersion(v)
	}
	fail := func(err error) (*Iterator, error) {
		unpin()
		return nil, err
	}
	for _, t := range v.levels[0] {
		r, release, err := db.tcache.acquire(t.fileNum)
		if err != nil {
			return fail(err)
		}
		refs = append(refs, release)
		iters = append(iters, r.iterator())
	}
	for level := 1; level < numLevels; level++ {
		if len(v.levels[level]) == 0 {
			continue
		}
		iters = append(iters, newConcatIter(v.levels[level], func(t *tableMeta) (internalIterator, error) {
			r, release, err := db.tcache.acquire(t.fileNum)
			if err != nil {
				return nil, err
			}
			return &releasingIter{internalIterator: r.iterator(), release: release}, nil
		}))
	}

	merged := newMergingIter(iters...)
	return &Iterator{it: merged, seq: seq, closer: unpin}, nil
}

// LastSequence returns the newest committed sequence number.
func (db *DB) LastSequence() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastSeq
}

// CompactNow triggers a compaction round and waits for background work to
// go idle (used by tests and benchmarks for determinism).
func (db *DB) CompactNow() error {
	db.mu.Lock()
	db.scheduleBackground()
	for (db.imm != nil || db.bgActive || db.hasWork()) && db.bgErr == nil && !db.closed {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// hasWork reports whether a flush or compaction is pending. Called with
// db.mu held.
func (db *DB) hasWork() bool {
	return db.imm != nil || db.pickCompactionLevel() >= 0
}

// Flush forces the current memtable to disk (used by tests).
func (db *DB) Flush() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.mem.len() > 0 {
		// Wait out any in-flight group commit too: rotating the WAL while
		// a leader is appending to it would strand the group's records in
		// a log that no longer backs the memtable they apply to.
		for (db.imm != nil || db.writeActive) && db.bgErr == nil && !db.closed {
			db.cond.Wait()
		}
		if db.bgErr != nil || db.closed {
			err := db.bgErr
			db.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		newNum := db.nextFile
		db.nextFile++
		wal, err := newWALWriter(walPath(db.dir, newNum), db.dir)
		if err != nil {
			db.mu.Unlock()
			return err
		}
		db.wal.close()
		db.imm = db.mem
		db.immWal = db.walNum
		db.mem = newMemtable()
		db.wal = wal
		db.walNum = newNum
		db.scheduleBackground()
	}
	for db.imm != nil && db.bgErr == nil && !db.closed {
		db.cond.Wait()
	}
	err := db.bgErr
	db.mu.Unlock()
	return err
}

// BlockCacheStats returns the shared block cache's cumulative (hits,
// misses); both zero when the cache is disabled.
func (db *DB) BlockCacheStats() (hits, misses uint64) {
	if db.tcache == nil || db.tcache.blocks == nil {
		return 0, 0
	}
	return db.tcache.blocks.stats()
}

// StateCacheStats reports cumulative hot-object state cache hits and
// misses.
func (db *DB) StateCacheStats() (hits, misses uint64) {
	return db.sc.stats()
}

// TableCount returns the number of live tables per level (for tests and the
// stats endpoint).
func (db *DB) TableCount() [numLevels]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [numLevels]int
	for i := range db.current.levels {
		out[i] = len(db.current.levels[i])
	}
	return out
}

// Close flushes state and releases all resources. The WAL preserves any
// unflushed memtable contents.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()

	close(db.bgQuit)
	<-db.bgDone

	db.mu.Lock()
	defer db.mu.Unlock()
	// Let any in-flight group commit finish and the writer queue drain
	// (the next promoted head observes closed and fails the remainder)
	// before closing the WAL underneath them.
	for db.writeActive || len(db.writers) > 0 {
		db.cond.Wait()
	}
	var firstErr error
	if err := db.wal.close(); err != nil {
		firstErr = err
	}
	if err := db.man.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	db.tcache.closeAll()
	syscall.Flock(int(db.lock.Fd()), syscall.LOCK_UN)
	if err := db.lock.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
