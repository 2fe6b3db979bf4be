// Package replication implements LambdaStore's primary-backup replication
// (paper §4.2.1). Mutating methods execute only at a shard's primary; the
// *results of the computation* — the committed write-set, not the inputs —
// are shipped synchronously to the backup replicas before the invocation
// reply is released, so a failover never loses an acknowledged write.
// Read-only methods may execute at any replica to increase throughput.
//
// The package also provides range-based state transfer, used both to
// bootstrap a new backup and to migrate a single object (microshard) to
// another replica group.
package replication

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/fault"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
)

// RPC method names.
const (
	MethodApply = "repl.apply"
	// MethodApplyBatch ships N coalesced (object, write-set) pairs plus the
	// primary's configuration epoch in one frame; the backup fences stale
	// epochs and acks all members at once.
	MethodApplyBatch = "repl.applyBatch"
	MethodFetch      = "repl.fetch"
)

// ErrBackupFailed reports that one or more backups did not acknowledge a
// write-set.
var ErrBackupFailed = errors.New("replication: backup failed")

// ErrStaleEpoch is returned by a backup that receives a write-set stamped
// with a configuration epoch older than its own: the sender is a deposed
// primary and must not get its commit acknowledged.
var ErrStaleEpoch = errors.New("replication: stale configuration epoch")

// errShipperClosed fails in-flight ship requests during shutdown.
var errShipperClosed = errors.New("replication: shipper closed")

// applyMsg is the wire form of a shipped write-set.
type applyMsg struct {
	object uint64
	batch  *store.Batch
}

func encodeApply(object uint64, b *store.Batch) []byte {
	var buf []byte
	buf = wire.AppendUvarint(buf, object)
	return wire.AppendBytes(buf, b.Encode())
}

func decodeApply(body []byte) (*applyMsg, error) {
	object, rest, err := wire.Uvarint(body)
	if err != nil {
		return nil, fmt.Errorf("replication: apply object: %w", err)
	}
	raw, _, err := wire.Bytes(rest)
	if err != nil {
		return nil, fmt.Errorf("replication: apply batch: %w", err)
	}
	b, err := store.DecodeBatch(raw)
	if err != nil {
		return nil, err
	}
	return &applyMsg{object: object, batch: b}, nil
}

// applyBatchMsg is the wire form of a coalesced ship frame: the sender's
// configuration epoch (0 = unfenced, for pre-epoch senders) followed by N
// (object, write-set) pairs, optionally followed by a lease renewal blob
// (granted TTL in microseconds + cumulative lane-enqueued entry count).
// Pre-lease decoders read exactly N pairs and ignore the trailing bytes,
// so the extension is wire-compatible in both directions.
type applyBatchMsg struct {
	epoch uint64
	msgs  []applyMsg
	// lease renewal piggyback; leaseTTLUs == 0 means none present.
	leaseTTLUs   uint64
	leaseEnq     uint64
	leaseGrantNs uint64
}

func encodeApplyBatch(epoch uint64, entries []*shipEntry, leaseTTLUs, leaseEnq, leaseGrantNs uint64) []byte {
	var buf []byte
	buf = wire.AppendUvarint(buf, epoch)
	buf = wire.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = wire.AppendUvarint(buf, e.object)
		buf = wire.AppendBytes(buf, e.data)
	}
	if leaseTTLUs > 0 {
		buf = wire.AppendUvarint(buf, leaseTTLUs)
		buf = wire.AppendUvarint(buf, leaseEnq)
		buf = wire.AppendUvarint(buf, leaseGrantNs)
	}
	return buf
}

func decodeApplyBatch(body []byte) (*applyBatchMsg, error) {
	epoch, rest, err := wire.Uvarint(body)
	if err != nil {
		return nil, fmt.Errorf("replication: applyBatch epoch: %w", err)
	}
	count, rest, err := wire.Uvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("replication: applyBatch count: %w", err)
	}
	if count > uint64(len(rest)) {
		return nil, fmt.Errorf("replication: applyBatch count %d exceeds body", count)
	}
	out := &applyBatchMsg{epoch: epoch, msgs: make([]applyMsg, 0, count)}
	for i := uint64(0); i < count; i++ {
		object, next, err := wire.Uvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("replication: applyBatch object: %w", err)
		}
		raw, next, err := wire.Bytes(next)
		if err != nil {
			return nil, fmt.Errorf("replication: applyBatch batch: %w", err)
		}
		b, err := store.DecodeBatch(raw)
		if err != nil {
			return nil, err
		}
		out.msgs = append(out.msgs, applyMsg{object: object, batch: b})
		rest = next
	}
	if len(rest) > 0 {
		ttl, next, err := wire.Uvarint(rest)
		if err != nil {
			return nil, fmt.Errorf("replication: applyBatch lease ttl: %w", err)
		}
		enq, next, err := wire.Uvarint(next)
		if err != nil {
			return nil, fmt.Errorf("replication: applyBatch lease enq: %w", err)
		}
		grant, _, err := wire.Uvarint(next)
		if err != nil {
			return nil, fmt.Errorf("replication: applyBatch lease grant: %w", err)
		}
		out.leaseTTLUs, out.leaseEnq, out.leaseGrantNs = ttl, enq, grant
	}
	return out, nil
}

// Shipper is the primary-side replication endpoint. Safe for concurrent
// use; write-sets of different objects ship concurrently (they commute),
// while per-object ordering is inherited from the object scheduler.
//
// Concurrent ships to the same backup coalesce: each backup has
// a send lane whose loop drains every queued write-set into one
// MethodApplyBatch frame, so N concurrent commits cost one RPC round trip
// instead of N. Acks release all member commits at once; a frame error
// fails every member, preserving "backup acked before client reply".
type Shipper struct {
	pool *rpc.Pool

	// epoch is the configuration epoch stamped on every shipped frame;
	// backups reject frames from older epochs (deposed primaries).
	epoch atomic.Uint64

	mu      sync.RWMutex
	backups []string
	// onFailure is invoked (outside the lock) when a backup rejects or
	// misses a write-set; the cluster layer reports it to the coordinator.
	onFailure func(addr string, err error)
	shipped   uint64

	lanesMu     sync.Mutex
	lanes       map[string]*shipLane
	lanesClosed bool

	// leaseTTL > 0 arms read-lease granting: shipped frames carry a
	// renewal blob and the renewal loop keeps idle backups leased.
	leaseTTL  atomic.Int64
	renewOnce sync.Once
	renewStop chan struct{}
	// laneEnq counts write-set entries ever enqueued toward each backup
	// (the backup-side lag reference; survives lane recreation).
	laneEnqMu sync.Mutex
	laneEnq   map[string]uint64

	// telemetry (all nil-safe): shippedCtr counts acknowledged write-sets,
	// failures counts backup rejections, shipUs tracks fan-out latency,
	// batchSize the member count of each shipped frame.
	shippedCtr *telemetry.Counter
	failures   *telemetry.Counter
	shipUs     *telemetry.Histogram
	batchSize  *telemetry.Histogram
}

// NewShipper returns a shipper over the given connection pool.
func NewShipper(pool *rpc.Pool, onFailure func(addr string, err error)) *Shipper {
	return &Shipper{pool: pool, onFailure: onFailure, renewStop: make(chan struct{})}
}

// SetLeaseTTL arms (ttl > 0) or disarms (ttl <= 0) read-lease granting.
// While armed, every shipped frame renews the receiving backup's lease
// and a background loop renews idle backups at TTL/4.
func (s *Shipper) SetLeaseTTL(ttl time.Duration) {
	if ttl < 0 {
		ttl = 0
	}
	s.leaseTTL.Store(int64(ttl))
	if ttl > 0 {
		s.renewOnce.Do(func() { go s.renewLoop() })
	}
}

// laneEnqAdd bumps addr's cumulative enqueued-entry count and returns
// the new value.
func (s *Shipper) laneEnqAdd(addr string, n int) uint64 {
	s.laneEnqMu.Lock()
	defer s.laneEnqMu.Unlock()
	if s.laneEnq == nil {
		s.laneEnq = make(map[string]uint64)
	}
	s.laneEnq[addr] += uint64(n)
	return s.laneEnq[addr]
}

// laneEnqGet reads addr's cumulative enqueued-entry count.
func (s *Shipper) laneEnqGet(addr string) uint64 {
	s.laneEnqMu.Lock()
	defer s.laneEnqMu.Unlock()
	return s.laneEnq[addr]
}

// renewLoop keeps every current backup's lease fresh while the group is
// idle; frames piggyback renewals on their own when writes flow. Send
// failures are ignored — the backup's lease simply expires and it
// bounces reads to the primary until renewals get through again.
func (s *Shipper) renewLoop() {
	for {
		ttl := time.Duration(s.leaseTTL.Load())
		if ttl <= 0 {
			ttl = 100 * time.Millisecond
		}
		select {
		case <-s.renewStop:
			return
		case <-time.After(ttl / 4):
		}
		ttl = time.Duration(s.leaseTTL.Load())
		epoch := s.epoch.Load()
		if ttl <= 0 || epoch == 0 {
			continue
		}
		for _, addr := range s.Backups() {
			go func(addr string) {
				// Stamp before the fault-plane delay: an injected renewal
				// delay models in-flight latency, which must eat into the
				// granted window rather than shift it.
				grantNs := uint64(time.Now().UnixNano())
				if fault.Enabled() {
					d := fault.Eval(fault.SiteLeaseRenew, addr)
					if d.Delay > 0 {
						time.Sleep(d.Delay)
					}
					if d.Err != nil || d.Drop {
						return
					}
				}
				body := encodeLease(leaseMsg{
					epoch:   epoch,
					ttlUs:   uint64(ttl / time.Microsecond),
					enq:     s.laneEnqGet(addr),
					grantNs: grantNs,
				})
				s.pool.Call(addr, MethodLease, body)
			}(addr)
		}
	}
}

// SetTelemetry wires the shipper's counters into reg: shipped write-sets,
// backup failures, ship latency, and per-frame batch size. Call before
// traffic starts.
func (s *Shipper) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.shippedCtr = reg.Counter("repl.shipped")
	s.failures = reg.Counter("repl.backup_failures")
	s.shipUs = reg.Histogram("repl.ship")
	s.batchSize = reg.Histogram("repl.batch_size")
	s.mu.Unlock()
}

// SetEpoch records the configuration epoch stamped on subsequent frames.
// Zero (the initial value) ships unfenced frames that any backup accepts.
func (s *Shipper) SetEpoch(epoch uint64) { s.epoch.Store(epoch) }

// Close stops the per-backup send lanes, failing any queued ships. Further
// ships to lanes fail with a closed error; callers should stop committing
// first.
func (s *Shipper) Close() {
	s.lanesMu.Lock()
	if s.lanesClosed {
		s.lanesMu.Unlock()
		return
	}
	s.lanesClosed = true
	lanes := s.lanes
	s.lanes = nil
	s.lanesMu.Unlock()
	close(s.renewStop)
	for _, l := range lanes {
		close(l.stop)
	}
}

// SetBackups replaces the backup set (reconfiguration).
func (s *Shipper) SetBackups(addrs []string) {
	s.mu.Lock()
	s.backups = append([]string(nil), addrs...)
	s.mu.Unlock()
}

// Backups returns the current backup set.
func (s *Shipper) Backups() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.backups...)
}

// Shipped returns the number of write-sets acknowledged by all backups.
func (s *Shipper) Shipped() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shipped
}

// Ship synchronously replicates one committed write-set to every backup.
// Failures are reported via the failure callback; the write-set is still
// considered durable if at least the primary holds it (the coordinator will
// reconfigure the group), so Ship returns the first error only for callers
// that want strict semantics.
func (s *Shipper) Ship(object uint64, b *store.Batch) error {
	_, err := s.ShipCtx(telemetry.SpanContext{}, object, b)
	return err
}

// shipEntry is one write-set queued on a backup's send lane. done is
// buffered so the lane loop never blocks completing it.
type shipEntry struct {
	object uint64
	data   []byte // encoded batch
	ctx    telemetry.SpanContext
	done   chan error
}

// shipLane is the per-backup send queue. A lane's loop drains all pending
// entries into one applyBatch frame per round trip.
type shipLane struct {
	addr string
	kick chan struct{} // buffered 1: "pending is non-empty"
	stop chan struct{}

	mu      sync.Mutex
	pending []*shipEntry
	closed  bool
}

func (l *shipLane) enqueue(e *shipEntry) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errShipperClosed
	}
	l.pending = append(l.pending, e)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// lane returns (creating if needed) the send lane for addr, or nil after
// Close.
func (s *Shipper) lane(addr string) *shipLane {
	s.lanesMu.Lock()
	defer s.lanesMu.Unlock()
	if s.lanesClosed {
		return nil
	}
	if s.lanes == nil {
		s.lanes = make(map[string]*shipLane)
	}
	l := s.lanes[addr]
	if l == nil {
		l = &shipLane{addr: addr, kick: make(chan struct{}, 1), stop: make(chan struct{})}
		s.lanes[addr] = l
		go s.laneLoop(l)
	}
	return l
}

// laneLoop drains the lane: every wakeup swaps out the whole pending queue
// and ships it as one frame, so the batch size adapts to how many commits
// arrived during the previous round trip (group-commit shaped, like the WAL
// write queue).
func (s *Shipper) laneLoop(l *shipLane) {
	for {
		select {
		case <-l.stop:
			l.mu.Lock()
			l.closed = true
			pending := l.pending
			l.pending = nil
			l.mu.Unlock()
			for _, e := range pending {
				e.done <- errShipperClosed
			}
			return
		case <-l.kick:
		}
		for {
			l.mu.Lock()
			pending := l.pending
			l.pending = nil
			l.mu.Unlock()
			if len(pending) == 0 {
				break
			}
			err := s.shipFrame(l.addr, pending)
			for _, e := range pending {
				e.done <- err
			}
		}
	}
}

// shipFrame sends one applyBatch frame carrying entries to addr. The trace
// context of the first entry parents the backup-side span.
func (s *Shipper) shipFrame(addr string, entries []*shipEntry) error {
	if fault.Enabled() {
		d := fault.Eval(fault.SiteReplShip, addr)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Err != nil {
			return d.Err
		}
		if d.Drop {
			// Silently lost write-set: the backup diverges while the
			// primary believes it shipped. This is the divergence probe —
			// only chaos experiments arm it.
			return nil
		}
	}
	var ttlUs, enq, grantNs uint64
	epoch := s.epoch.Load()
	if ttl := time.Duration(s.leaseTTL.Load()); ttl > 0 && epoch != 0 {
		ttlUs = uint64(ttl / time.Microsecond)
		enq = s.laneEnqAdd(addr, len(entries))
		// Stamped at send so the backup measures expiry from our clock:
		// any time this frame spends in flight is burned off the lease.
		grantNs = uint64(time.Now().UnixNano())
	}
	body := encodeApplyBatch(epoch, entries, ttlUs, enq, grantNs)
	_, err := s.pool.CallCtx(addr, entries[0].ctx, MethodApplyBatch, body)
	if bs := s.batchSize; bs != nil {
		bs.Record(time.Duration(len(entries)) * time.Microsecond)
	}
	return err
}

// ShipCtx is Ship carrying the committing request's trace context, so the
// backup-side apply spans join the caller's trace. It also reports how many
// backups the write-set was fanned out to.
func (s *Shipper) ShipCtx(ctx telemetry.SpanContext, object uint64, b *store.Batch) (int, error) {
	s.mu.RLock()
	backups := s.backups
	shipUs := s.shipUs
	s.mu.RUnlock()
	if len(backups) == 0 {
		return 0, nil
	}
	var start time.Time
	if shipUs != nil {
		start = time.Now()
	}
	data := b.Encode()

	// Fan the write-set out to every backup and collect one error per
	// backup, each enqueued on that backup's send lane.
	entries := make([]*shipEntry, len(backups))
	for i, addr := range backups {
		e := &shipEntry{object: object, data: data, ctx: ctx, done: make(chan error, 1)}
		entries[i] = e
		lane := s.lane(addr)
		if lane == nil {
			e.done <- errShipperClosed
		} else if err := lane.enqueue(e); err != nil {
			e.done <- err
		}
	}

	var firstErr error
	for i, e := range entries {
		if err := <-e.done; err != nil {
			addr := backups[i]
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %s: %v", ErrBackupFailed, addr, err)
			}
			if s.onFailure != nil {
				s.onFailure(addr, err)
			}
			if s.failures != nil {
				s.failures.Inc()
			}
		}
	}
	if shipUs != nil {
		shipUs.Record(time.Since(start))
	}
	if firstErr == nil {
		s.mu.Lock()
		s.shipped++
		s.mu.Unlock()
		if s.shippedCtr != nil {
			s.shippedCtr.Inc()
		}
	}
	return len(backups), firstErr
}

// Applier is the backup-side sink for shipped write-sets (implemented by
// core.Runtime).
type Applier interface {
	ApplyReplicated(object uint64, b *store.Batch) error
}

// applierFunc adapts a function to Applier.
type applierFunc func(object uint64, b *store.Batch) error

func (f applierFunc) ApplyReplicated(object uint64, b *store.Batch) error { return f(object, b) }

// ApplierFunc wraps fn as an Applier.
func ApplierFunc(fn func(object uint64, b *store.Batch) error) Applier { return applierFunc(fn) }

// BulkApplier is an optional Applier extension: a backup that implements it
// applies all member write-sets of a coalesced frame in one storage commit
// — one WAL append and one fsync for the whole frame — instead of one
// commit per member.
type BulkApplier interface {
	ApplyReplicatedBulk(objects []uint64, batches []*store.Batch) error
}

// bulkApplierFunc adapts a (single, bulk) function pair to both interfaces.
type bulkApplierFunc struct {
	applierFunc
	bulk func(objects []uint64, batches []*store.Batch) error
}

func (f *bulkApplierFunc) ApplyReplicatedBulk(objects []uint64, batches []*store.Batch) error {
	return f.bulk(objects, batches)
}

// BulkApplierFunc wraps a single-write-set apply and a bulk apply as an
// Applier that also satisfies BulkApplier.
func BulkApplierFunc(single func(object uint64, b *store.Batch) error,
	bulk func(objects []uint64, batches []*store.Batch) error) Applier {
	return &bulkApplierFunc{applierFunc: single, bulk: bulk}
}

// RegisterBackup exposes the backup-side apply and fetch handlers on an RPC
// server.
func RegisterBackup(srv *rpc.Server, db *store.DB, applier Applier) {
	RegisterBackupFenced(srv, db, applier, nil, nil, nil)
}

// RegisterBackupTelemetry is RegisterBackup with observability: applied
// write-sets are counted in reg ("repl.applied") and each apply records a
// "repl.apply" span in tracer, parented to the primary's replicate span.
// Both tracer and reg may be nil.
func RegisterBackupTelemetry(srv *rpc.Server, db *store.DB, applier Applier, tracer *telemetry.Tracer, reg *telemetry.Registry) {
	RegisterBackupFenced(srv, db, applier, tracer, reg, nil)
}

// RegisterBackupFenced is RegisterBackupTelemetry with epoch fencing:
// localEpoch (nil = unfenced) reports this node's configuration epoch, and
// any applyBatch frame stamped with an older non-zero epoch is rejected
// with ErrStaleEpoch — a deposed primary cannot get a write acknowledged
// after its group has been reconfigured (DESIGN.md §8). Rejections are
// counted in reg ("repl.stale_epoch").
func RegisterBackupFenced(srv *rpc.Server, db *store.DB, applier Applier, tracer *telemetry.Tracer, reg *telemetry.Registry, localEpoch func() uint64) {
	RegisterBackupLeased(srv, db, applier, tracer, reg, localEpoch, nil)
}

// RegisterBackupLeased is RegisterBackupFenced with a read-lease holder:
// applyBatch frames feed the holder's applied counter and any piggybacked
// renewal blob, and the standalone MethodLease renewal handler is
// registered. holder may be nil (leases disabled on this node).
func RegisterBackupLeased(srv *rpc.Server, db *store.DB, applier Applier, tracer *telemetry.Tracer, reg *telemetry.Registry, localEpoch func() uint64, holder *LeaseHolder) {
	var applied, stale *telemetry.Counter
	if reg != nil {
		applied = reg.Counter("repl.applied")
		stale = reg.Counter("repl.stale_epoch")
	}
	srv.HandleCtx(MethodApply, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		sp := tracer.StartSpan(info.Trace, "repl.apply")
		msg, err := decodeApply(body)
		if err != nil {
			sp.FinishErr(err)
			return nil, err
		}
		err = applier.ApplyReplicated(msg.object, msg.batch)
		sp.FinishErr(err)
		if err != nil {
			return nil, err
		}
		holder.NoteApplied(1)
		if applied != nil {
			applied.Inc()
		}
		return nil, nil
	})
	srv.HandleCtx(MethodApplyBatch, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		sp := tracer.StartSpan(info.Trace, "repl.applyBatch")
		msg, err := decodeApplyBatch(body)
		if err != nil {
			sp.FinishErr(err)
			return nil, err
		}
		// Fence before applying anything: a frame from a deposed primary
		// (epoch older than ours) must not land a single write-set.
		// Epoch 0 marks an unfenced sender and is always accepted.
		if msg.epoch != 0 && localEpoch != nil {
			if local := localEpoch(); msg.epoch < local {
				err := fmt.Errorf("%w: shipped epoch %d < local epoch %d", ErrStaleEpoch, msg.epoch, local)
				if stale != nil {
					stale.Inc()
				}
				sp.FinishErr(err)
				return nil, err
			}
		}
		// The frame's members are write-sets of distinct objects
		// (same-object write-sets are serialized by the primary's object
		// scheduler, so one frame never carries two); order within the
		// frame is therefore free. A BulkApplier collapses them into one
		// storage commit — one WAL append, one fsync. Otherwise apply
		// concurrently so the store's WAL group commit can still merge
		// the fsyncs; sequential apply would pay one fsync per member and
		// make frame latency grow linearly with batch size.
		switch bulk, ok := applier.(BulkApplier); {
		case len(msg.msgs) == 1:
			err = applier.ApplyReplicated(msg.msgs[0].object, msg.msgs[0].batch)
		case ok:
			objects := make([]uint64, len(msg.msgs))
			batches := make([]*store.Batch, len(msg.msgs))
			for i := range msg.msgs {
				objects[i] = msg.msgs[i].object
				batches[i] = msg.msgs[i].batch
			}
			err = bulk.ApplyReplicatedBulk(objects, batches)
		default:
			errs := make(chan error, len(msg.msgs))
			for i := range msg.msgs {
				go func(m *applyMsg) {
					errs <- applier.ApplyReplicated(m.object, m.batch)
				}(&msg.msgs[i])
			}
			for range msg.msgs {
				if e := <-errs; e != nil && err == nil {
					err = e
				}
			}
		}
		if err != nil {
			// The whole frame fails: the ack is withheld for every member,
			// so no primary releases a client reply for a write-set this
			// backup does not hold.
			sp.FinishErr(err)
			return nil, err
		}
		// Lease bookkeeping strictly after a successful apply: the frame's
		// entries are now visible locally (and its caches invalidated), so
		// counting them applied — and honoring any piggybacked renewal —
		// can never let a read race ahead of the data it covers.
		holder.NoteApplied(len(msg.msgs))
		if msg.leaseTTLUs > 0 {
			holder.Renew(leaseMsg{epoch: msg.epoch, ttlUs: msg.leaseTTLUs, enq: msg.leaseEnq, grantNs: msg.leaseGrantNs})
		}
		if applied != nil {
			applied.Add(uint64(len(msg.msgs)))
		}
		sp.Finish()
		return nil, nil
	})
	srv.Handle(MethodFetch, func(body []byte) ([]byte, error) {
		req, err := decodeFetchReq(body)
		if err != nil {
			return nil, err
		}
		return serveFetch(db, req)
	})
	if holder != nil {
		registerLease(srv, holder)
	}
}

// --- range state transfer ---

// fetchReq asks for up to limit live entries in [start, end).
type fetchReq struct {
	start []byte
	end   []byte
	limit uint64
}

func encodeFetchReq(r *fetchReq) []byte {
	var b []byte
	b = wire.AppendBytes(b, r.start)
	b = wire.AppendBytes(b, r.end)
	return wire.AppendUvarint(b, r.limit)
}

func decodeFetchReq(body []byte) (*fetchReq, error) {
	r := &fetchReq{}
	var err error
	var raw []byte
	if raw, body, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	r.start = append([]byte(nil), raw...)
	if raw, body, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	r.end = append([]byte(nil), raw...)
	if r.limit, _, err = wire.Uvarint(body); err != nil {
		return nil, err
	}
	return r, nil
}

// fetchResp carries entries plus a continuation key ("" = done).
type fetchResp struct {
	keys   [][]byte
	values [][]byte
	next   []byte
}

func encodeFetchResp(r *fetchResp) []byte {
	var b []byte
	b = wire.AppendBytesSlice(b, r.keys)
	b = wire.AppendBytesSlice(b, r.values)
	return wire.AppendBytes(b, r.next)
}

func decodeFetchResp(body []byte) (*fetchResp, error) {
	r := &fetchResp{}
	var err error
	if r.keys, body, err = wire.BytesSlice(body); err != nil {
		return nil, err
	}
	if r.values, body, err = wire.BytesSlice(body); err != nil {
		return nil, err
	}
	var raw []byte
	if raw, _, err = wire.Bytes(body); err != nil {
		return nil, err
	}
	r.next = append([]byte(nil), raw...)
	if len(r.keys) != len(r.values) {
		return nil, fmt.Errorf("replication: fetch resp key/value count mismatch")
	}
	return r, nil
}

// serveFetch streams one page of a range from a consistent snapshot.
func serveFetch(db *store.DB, req *fetchReq) ([]byte, error) {
	snap := db.GetSnapshot()
	defer snap.Release()
	it, err := snap.NewIterator()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	limit := req.limit
	if limit == 0 || limit > 4096 {
		limit = 4096
	}
	resp := &fetchResp{}
	it.Seek(req.start)
	for ; it.Valid(); it.Next() {
		k := it.Key()
		if len(req.end) > 0 && string(k) >= string(req.end) {
			break
		}
		if uint64(len(resp.keys)) >= limit {
			resp.next = append([]byte(nil), k...)
			break
		}
		resp.keys = append(resp.keys, append([]byte(nil), k...))
		resp.values = append(resp.values, append([]byte(nil), it.Value()...))
	}
	if err := it.Error(); err != nil {
		return nil, err
	}
	return encodeFetchResp(resp), nil
}

// FetchRange copies every live entry in [start, end) from the peer at addr,
// invoking fn per entry. Used for backup bootstrap and object migration.
func FetchRange(pool *rpc.Pool, addr string, start, end []byte, fn func(key, value []byte) error) error {
	cursor := append([]byte(nil), start...)
	for {
		body, err := pool.Call(addr, MethodFetch, encodeFetchReq(&fetchReq{start: cursor, end: end, limit: 1024}))
		if err != nil {
			return err
		}
		resp, err := decodeFetchResp(body)
		if err != nil {
			return err
		}
		for i := range resp.keys {
			if err := fn(resp.keys[i], resp.values[i]); err != nil {
				return err
			}
		}
		if len(resp.next) == 0 {
			return nil
		}
		cursor = resp.next
	}
}
