package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/admission"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/debug"
	"lambdastore/internal/fault"
	"lambdastore/internal/recovery"
	"lambdastore/internal/replication"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
	"lambdastore/internal/wire"
)

// NodeOptions configures a storage node.
type NodeOptions struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// DataDir is the storage engine directory.
	DataDir string
	// Store tunes the LSM engine (nil = defaults).
	Store *store.Options
	// Runtime tunes the object runtime. Invoker and OnCommit are installed
	// by the node; the remaining knobs (fuel, cache, clock) pass through.
	Runtime core.Options
	// GroupID is the replica group this node belongs to.
	GroupID uint64
	// Directory is the initial configuration (static mode). With a
	// Coordinator configured the node refreshes it periodically.
	Directory *shard.Directory
	// Coordinators lists coordinator replica addresses (optional).
	Coordinators []string
	// HeartbeatInterval is how often the node reports liveness (default
	// 500ms; only with Coordinators).
	HeartbeatInterval time.Duration
	// ClientOptions tunes this node's outbound connections (delay
	// injection for experiments, timeouts).
	ClientOptions *rpc.ClientOptions
	// DebugAddr, if non-empty, starts the debug HTTP server (/metrics,
	// /traces, /healthz, pprof) on that address ("127.0.0.1:0" for an
	// ephemeral port).
	DebugAddr string
	// Tracing enables span recording. Off, the tracer costs one predicted
	// branch per stage; metrics are always collected (atomic increments).
	Tracing bool
	// TraceBufferSize bounds the span ring (0 = telemetry.DefaultTraceBuffer).
	TraceBufferSize int
	// SlowTraceThreshold logs any root span slower than this (0 = no log).
	SlowTraceThreshold time.Duration
	// Rejoin enables the anti-entropy recovery manager: whenever this
	// node is not a member of its group (a restarted replica), it syncs
	// from the group's primary via range digests and re-admits itself
	// through the coordinator. Requires Coordinators.
	Rejoin bool
	// RecoveryBuckets overrides the digest bucket fan-out (0 = default).
	RecoveryBuckets int
	// RecoveryMaxBytesPerSec rate-limits recovery chunk streaming
	// (0 = unlimited).
	RecoveryMaxBytesPerSec int
	// MaxConcurrentInvokes, when positive, bounds how many inbound
	// invocations execute at once — an admission gate modeling per-node
	// compute capacity. In-process multi-node benches share one CPU
	// pool, so without this gate placement has no throughput effect;
	// with it, a node saturates at its own limit the way a real machine
	// saturates its cores. With AdmissionQueue unset this is a bare
	// blocking semaphore (requests queue without bound or deadline);
	// with it, it sizes the admission plane's execution slots.
	MaxConcurrentInvokes int
	// AdmissionQueue, when positive, enables the admission plane: a
	// bounded wait queue of this many requests in front of the execution
	// slots (MaxConcurrentInvokes, or NumCPU when unset), with
	// deadline-based shedding and optional per-tenant quotas. Requests
	// the plane refuses are rejected with a typed overload error the
	// client retries with capped backoff. Zero keeps the legacy
	// unbounded semaphore gate.
	AdmissionQueue int
	// AdmissionDeadline bounds queue wait before a request is shed
	// (0 = admission.DefaultDeadline).
	AdmissionDeadline time.Duration
	// AdmissionLIFO drains the admission queue newest-first: under a
	// burst the freshest requests still meet their deadline while the
	// oldest — whose clients have likely given up — are shed.
	AdmissionLIFO bool
	// TenantQPS, when positive, token-bucket rate-limits each tenant at
	// the admission plane. The tenant is the client-declared tenant tag
	// on the invoke frame, falling back to the peer's host.
	TenantQPS float64
	// MoveSessionTimeout bounds inbound live-migration session
	// inactivity before the target reclaims the partial copy (0 =
	// default 10s; chaos tests shrink it).
	MoveSessionTimeout time.Duration
	// LeaseTTL is the read-lease duration this node grants its backups
	// while primary (0 = DefaultLeaseTTL). Backups holding a valid
	// lease serve read-only invocations locally; the primary stalls
	// write acks for one TTL after any lease-breaking reconfiguration.
	// Keep it at or below the coordinator's heartbeat timeout so a
	// partitioned backup's lease expires before the failure detector
	// can reconfigure around it.
	LeaseTTL time.Duration
	// LeaseApplyLagMax bounds how many shipped-but-unapplied write-set
	// entries a leased backup tolerates before bouncing reads to the
	// primary (0 = replication.DefaultLeaseApplyLagMax).
	LeaseApplyLagMax int
}

// DefaultLeaseTTL is the read-lease duration when NodeOptions.LeaseTTL
// is zero.
const DefaultLeaseTTL = 500 * time.Millisecond

// Node is one LambdaStore storage node: it persists objects, executes
// their methods in the embedded isolation runtime, replicates committed
// write-sets to its group's backups when acting as primary, and serves
// read-only invocations when acting as backup.
type Node struct {
	opts    NodeOptions
	addr    string
	db      *store.DB
	rt      *core.Runtime
	srv     *rpc.Server
	pool    *rpc.Pool
	shipper *replication.Shipper
	coord   *coordinator.Client

	donor         *recovery.Donor
	recmgr        *recovery.Manager
	recmgrStarted bool
	moveSrc       *recovery.MoveSource
	moveTgt       *recovery.MoveTarget

	// Object fences: while an outbound move quiesces an object, routing
	// rejects it with not-responsible ahead of the admission queue. The
	// atomic count keeps the routeCheck fast path to one load when no
	// fence is up (the overwhelmingly common case). A fence outlives a
	// successful cutover on purpose — it self-clears only once this
	// node's directory view maps the object elsewhere, so a stale view
	// can never let the old home serve post-move requests.
	fenceCount atomic.Int32
	fenceMu    sync.Mutex
	fences     map[uint64]string

	// invSem, when non-nil, is the MaxConcurrentInvokes admission gate.
	// adm, when non-nil, supersedes it (AdmissionQueue > 0): a bounded
	// queue with deadline shedding and per-tenant quotas.
	invSem chan struct{}
	adm    *admission.Plane

	// Read-lease plane. leases is this node's backup-side holder;
	// leaseTTL is the primary-side grant duration. leaseBarrier holds a
	// unixnano deadline before which no write ack may be released (a
	// lease-breaking membership change happened; orphaned leases must
	// expire first); objBarrier holds the same per object for
	// migrations into this group.
	leases       *replication.LeaseHolder
	leaseTTL     time.Duration
	leaseBarrier atomic.Int64
	objBarrierMu sync.Mutex
	objBarrier   map[uint64]int64

	dir    atomic.Pointer[shard.Directory]
	stopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}

	forwarded atomic.Uint64 // cross-object invocations routed off-node

	metrics       *telemetry.Registry
	tracer        *telemetry.Tracer
	debugSrv      *debug.Server
	forwards      *telemetry.Counter
	migrations    *telemetry.Counter
	backupServed  *telemetry.Counter
	primaryBounce *telemetry.Counter
}

// StartNode opens the store and starts serving.
func StartNode(opts NodeOptions) (*Node, error) {
	// Every node gets a registry and a tracer; tracing is enabled only on
	// request, and the registry's instruments are atomic counters whose
	// cost is negligible.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(opts.Addr, opts.TraceBufferSize)
	tracer.SetEnabled(opts.Tracing)
	tracer.SetSlowThreshold(opts.SlowTraceThreshold)

	stOpts := &store.Options{}
	if opts.Store != nil {
		cp := *opts.Store
		stOpts = &cp
	}
	stOpts.Metrics = reg

	db, err := store.Open(opts.DataDir, stOpts)
	if err != nil {
		return nil, err
	}
	n := &Node{
		opts:    opts,
		db:      db,
		srv:     rpc.NewServer(),
		pool:    rpc.NewPool(opts.ClientOptions),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		metrics: reg,
		tracer:  tracer,
		fences:  make(map[uint64]string),
	}
	if opts.AdmissionQueue > 0 {
		// Admission plane supersedes the bare semaphore: same slot count,
		// but waits are bounded and overload is shed instead of queued
		// without limit.
		n.adm = admission.New(admission.Options{
			Workers:    opts.MaxConcurrentInvokes,
			QueueLimit: opts.AdmissionQueue,
			Deadline:   opts.AdmissionDeadline,
			LIFO:       opts.AdmissionLIFO,
			TenantQPS:  opts.TenantQPS,
			Metrics:    reg,
		})
	} else if opts.MaxConcurrentInvokes > 0 {
		n.invSem = make(chan struct{}, opts.MaxConcurrentInvokes)
	}
	n.forwards = reg.Counter("cluster.forwards")
	n.migrations = reg.Counter("cluster.migrations")
	n.backupServed = reg.Counter("reads.backup_served")
	n.primaryBounce = reg.Counter("reads.primary_bounced")
	n.leaseTTL = opts.LeaseTTL
	if n.leaseTTL <= 0 {
		n.leaseTTL = DefaultLeaseTTL
	}
	n.leases = replication.NewLeaseHolder(
		func() uint64 { return n.dir.Load().Epoch() },
		opts.LeaseApplyLagMax, nil)
	n.leases.SetTelemetry(reg)
	n.objBarrier = make(map[uint64]int64)
	n.srv.SetTelemetry(reg)
	n.pool.SetTelemetry(reg)
	if opts.Directory == nil {
		opts.Directory = shard.NewDirectory(nil)
	}
	n.dir.Store(opts.Directory)

	n.shipper = replication.NewShipper(n.pool, n.onBackupFailure)
	n.shipper.SetTelemetry(reg)
	n.shipper.SetLeaseTTL(n.leaseTTL)

	rtOpts := opts.Runtime
	rtOpts.Invoker = &routerInvoker{node: n}
	rtOpts.Metrics = reg
	rtOpts.Tracer = tracer
	rtOpts.OnCommit = func(ctx telemetry.SpanContext, obj core.ObjectID, seq uint64, ws *store.Batch) error {
		// Synchronous primary-backup shipping: the invocation reply is not
		// released until every backup acknowledged. A failed ship withholds
		// the ack (paper §4.2.1 — no acknowledged write may be lost to a
		// failover); the coordinator evicts the dead backup and the client
		// retries into the reconfigured group.
		//
		// The commit guard brackets ship+forward against rejoin admission:
		// while a joiner's cutover reconfigures the group, no commit can
		// slip between "session retired" and "shipper covers the joiner".
		release := n.donor.GuardCommit()
		defer release()
		sp := n.tracer.StartSpan(ctx, "replicate")
		shipCtx := sp.Context()
		if !shipCtx.Valid() {
			shipCtx = ctx
		}
		reached, err := n.shipper.ShipCtx(shipCtx, uint64(obj), ws)
		sp.FinishErr(err)
		if err != nil {
			return err
		}
		// A primary deposed while this invocation ran has no backups left
		// by the time it ships, so the ship above succeeds without
		// reaching any replica. SetDirectory installs the deposing view
		// before it clears the fan-out, so this check sees it: withhold
		// the ack and send the client to the new primary. A ship that
		// reached backups keeps its ack, as before.
		if reached == 0 {
			if g, deposed := n.deposed(); deposed {
				return notResponsibleError(g.Primary)
			}
		}
		// Relay the commit to any joiner mid-catch-up (strict sessions
		// withhold the ack on failure, exactly like a real backup).
		if err := n.donor.ForwardCommitCtx(ctx, uint64(obj), ws); err != nil {
			return err
		}
		// Relay to an in-flight outbound move's target, if any (best
		// effort: a lost relay is a forward gap the move's seal heals).
		n.moveSrc.ForwardCommit(ctx, uint64(obj), ws)
		// Lease-breaking reconfigurations stall the ack until any lease
		// this primary can no longer invalidate has surely expired: the
		// write is durable and shipped by now, only its client
		// visibility waits (bounded by one lease TTL).
		n.waitLeaseBarrier(uint64(obj))
		return nil
	}
	n.rt, err = core.NewRuntime(db, rtOpts)
	if err != nil {
		db.Close()
		return nil, err
	}

	// Recovery plane: every node can donate state (it may be primary at
	// any point in its life) and serve the joiner side of commit
	// forwarding; the manager's watch loop only runs with Rejoin set.
	n.donor = recovery.NewDonor(recovery.DonorOptions{
		DB:        db,
		Pool:      n.pool,
		Epoch:     func() uint64 { return n.dir.Load().Epoch() },
		IsPrimary: n.isPrimary,
		Admit:     n.admitJoiner,
		Metrics:   reg,
		Tracer:    tracer,
	})
	n.recmgr = recovery.NewManager(recovery.ManagerOptions{
		GroupID: opts.GroupID,
		Pool:    n.pool,
		DB:      db,
		Apply: func(object uint64, b *store.Batch) error {
			return n.rt.ApplyReplicated(core.ObjectID(object), b)
		},
		Directory:      func() *shard.Directory { return n.dir.Load() },
		ReloadTypes:    n.rt.ReloadTypes,
		Buckets:        opts.RecoveryBuckets,
		MaxBytesPerSec: opts.RecoveryMaxBytesPerSec,
		Metrics:        reg,
		Tracer:         tracer,
	})

	// Live-migration plane: any primary can push one of its objects to
	// another group (source) or receive one (target). Both reuse the
	// recovery machinery's snapshot streaming and commit forwarding,
	// scoped to a single microshard.
	replApply := func(object uint64, b *store.Batch) error {
		if err := n.rt.ApplyReplicated(core.ObjectID(object), b); err != nil {
			return err
		}
		return n.shipper.Ship(object, b)
	}
	n.moveTgt = recovery.NewMoveTarget(recovery.MoveTargetOptions{
		DB:    db,
		Apply: replApply,
		Owns: func(object uint64) bool {
			g, err := n.dir.Load().Lookup(object)
			return err == nil && g.ID == n.opts.GroupID
		},
		InstallDirectory: func(snap []byte) {
			if d, err := shard.Load(snap); err == nil && d.Epoch() > n.dir.Load().Epoch() {
				n.SetDirectory(d)
			}
		},
		SessionTimeout: opts.MoveSessionTimeout,
		Metrics:        reg,
	})
	n.moveSrc = recovery.NewMoveSource(recovery.MoveSourceOptions{
		DB:        db,
		Pool:      n.pool,
		Epoch:     func() uint64 { return n.dir.Load().Epoch() },
		IsPrimary: n.isPrimary,
		LockObject: func(object uint64) (func(), error) {
			return n.rt.LockObject(core.ObjectID(object))
		},
		Fence:       n.fenceObject,
		Unfence:     n.unfenceObject,
		CutOver:     n.cutOverObject,
		Apply:       replApply,
		DirSnapshot: func() []byte { return n.dir.Load().Snapshot() },
		Metrics:     reg,
		Tracer:      tracer,
	})

	n.registerHandlers()
	addr, err := n.srv.Serve(opts.Addr)
	if err != nil {
		db.Close()
		return nil, err
	}
	n.addr = addr
	tracer.SetNode(addr)
	n.recmgr.SetSelf(addr)
	n.moveSrc.SetSelf(addr)
	// Identify this node's outbound connections to the fault plane so link
	// partitions can name both endpoints.
	n.pool.SetFaultLabel(addr)
	n.refreshBackups()

	if opts.DebugAddr != "" {
		// Mirror fault-plane firings into this node's registry so injected
		// drops/delays/errors show up as first-class /metrics counters
		// (fault.injected.<action>) alongside the per-site gauges.
		fault.SetRegistry(reg)
		n.debugSrv, err = debug.Start(opts.DebugAddr, debug.Options{
			Registry: reg,
			Tracer:   tracer,
			Gauges:   n.debugGauges,
			Health:   n.health,
			Faults:   true,
			Recovery: func() any {
				return map[string]any{
					"rejoin":         n.recmgr.Status(),
					"donor_sessions": n.donor.Sessions(),
				}
			},
			Admission: func() any {
				if n.adm == nil {
					return map[string]any{"enabled": false}
				}
				return n.adm.Status()
			},
		})
		if err != nil {
			n.srv.Close()
			db.Close()
			return nil, err
		}
	}

	if len(opts.Coordinators) > 0 {
		n.coord = coordinator.NewClient(n.pool, opts.Coordinators)
		// Fetch the current configuration synchronously before serving
		// traffic: a restarting node must learn it was deposed (or that it
		// still is primary, and of whom) before its first routing decision.
		if d, err := n.coord.GetConfig(); err == nil {
			n.SetDirectory(d)
		}
		go n.coordLoop()
	} else {
		close(n.done)
	}
	if opts.Rejoin && len(opts.Coordinators) > 0 {
		n.recmgrStarted = true
		go n.recmgr.Run()
	}
	return n, nil
}

// admitJoiner is the donor's cutover callback: propose the epoch-fenced
// configuration change re-adding the joiner, then confirm it took and
// refresh this node's view so the shipper covers the joiner before the
// commit fence is released.
func (n *Node) admitJoiner(joiner string, expectEpoch uint64) error {
	if n.coord == nil {
		return fmt.Errorf("cluster: no coordinator to admit %s through", joiner)
	}
	if err := n.coord.AddBackup(n.opts.GroupID, joiner, expectEpoch); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		d, err := n.coord.GetConfig()
		if err == nil {
			for _, g := range d.Groups() {
				if g.ID != n.opts.GroupID {
					continue
				}
				for _, b := range g.Backups {
					if b == joiner {
						n.SetDirectory(d)
						return nil
					}
				}
			}
			if d.Epoch() > expectEpoch {
				// The replica we read has applied past the fence point and
				// the joiner is not in the group: the epoch fence rejected
				// the proposal (the configuration changed under the
				// session). The joiner re-syncs against the new one.
				return fmt.Errorf("cluster: admission of %s fenced out at epoch %d (expected %d)",
					joiner, d.Epoch(), expectEpoch)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: admission of %s did not take effect (epoch %d)", joiner, expectEpoch)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Addr returns the node's RPC address.
func (n *Node) Addr() string { return n.addr }

// Runtime exposes the node's object runtime (tests, tools).
func (n *Node) Runtime() *core.Runtime { return n.rt }

// DB exposes the node's storage engine (tests, tools).
func (n *Node) DB() *store.DB { return n.db }

// Directory returns the node's current view of the configuration.
func (n *Node) Directory() *shard.Directory { return n.dir.Load() }

// SetDirectory installs a new configuration view.
func (n *Node) SetDirectory(d *shard.Directory) {
	old := n.dir.Load()
	n.dir.Store(d)
	n.onDirectoryChange(old, d)
	n.refreshBackups()
}

// onDirectoryChange applies the read-lease consequences of a new
// configuration view. Backup side: any held lease was granted under the
// old epoch, so it dies here (Valid would also catch it; revoking
// eagerly keeps the counters honest). Primary side: if the change could
// orphan a lease this primary can no longer invalidate — a replica left
// my group (eviction, failover, this node's own promotion), or an
// object migrated into my group while the source group's backups may
// still hold leases covering it — write acks stall until one full TTL
// has passed, by which time every such lease has expired (backups honor
// only 3/4 of the TTL, leaving margin for skew and delivery latency).
func (n *Node) onDirectoryChange(old, nw *shard.Directory) {
	if old == nil || nw == nil || old == nw || old.Epoch() == nw.Epoch() {
		return
	}
	n.leases.Revoke()
	g, ok := groupIn(nw, n.opts.GroupID)
	if !ok || g.Primary != n.addr {
		return
	}
	until := time.Now().Add(n.leaseTTL).UnixNano()
	og, hadGroup := groupIn(old, n.opts.GroupID)
	shrink := !hadGroup || og.Primary != n.addr
	if !shrink {
		now := g.Replicas()
		for _, m := range og.Replicas() {
			found := false
			for _, r := range now {
				if r == m {
					found = true
					break
				}
			}
			if !found {
				shrink = true
				break
			}
		}
	}
	if shrink {
		for {
			cur := n.leaseBarrier.Load()
			if until <= cur || n.leaseBarrier.CompareAndSwap(cur, until) {
				break
			}
		}
	}
	// Objects newly mapped into my group (override installed, or an
	// override back to a default placement here cleared): the previous
	// home's backups may serve leased reads of them until their view
	// catches up or their lease expires — stall acks per object.
	oldOv, newOv := old.Overrides(), nw.Overrides()
	seen := make(map[uint64]bool, len(oldOv)+len(newOv))
	for obj := range newOv {
		seen[obj] = true
	}
	for obj := range oldOv {
		seen[obj] = true
	}
	for obj := range seen {
		ng, nerr := nw.Lookup(obj)
		if nerr != nil || ng.ID != n.opts.GroupID {
			continue
		}
		ogr, oerr := old.Lookup(obj)
		if oerr == nil && ogr.ID == n.opts.GroupID {
			continue // was already ours
		}
		n.objBarrierMu.Lock()
		if n.objBarrier[obj] < until {
			n.objBarrier[obj] = until
		}
		n.objBarrierMu.Unlock()
	}
}

// waitLeaseBarrier blocks until every write-ack barrier covering the
// object has passed (no-op in the overwhelmingly common case).
func (n *Node) waitLeaseBarrier(object uint64) {
	now := time.Now().UnixNano()
	until := n.leaseBarrier.Load()
	n.objBarrierMu.Lock()
	if len(n.objBarrier) > 0 {
		if t, ok := n.objBarrier[object]; ok {
			if t > until {
				until = t
			}
			if t <= now {
				delete(n.objBarrier, object)
			}
		}
	}
	n.objBarrierMu.Unlock()
	if until > now {
		time.Sleep(time.Duration(until - now))
	}
}

// Forwarded returns how many cross-object invocations left this node.
func (n *Node) Forwarded() uint64 { return n.forwarded.Load() }

// MoveSessions reports the inbound live-migration sessions currently
// open on this node (a non-zero count after a failed move means the
// janitor has not yet reclaimed the partial copy).
func (n *Node) MoveSessions() int { return n.moveTgt.Sessions() }

// Metrics returns the node's telemetry registry.
func (n *Node) Metrics() *telemetry.Registry { return n.metrics }

// Tracer returns the node's span recorder.
func (n *Node) Tracer() *telemetry.Tracer { return n.tracer }

// DebugAddr returns the debug HTTP server's bound address, or "" when the
// server is not running.
func (n *Node) DebugAddr() string {
	if n.debugSrv == nil {
		return ""
	}
	return n.debugSrv.Addr()
}

// RecoveryStatus snapshots the node's rejoin state machine (tests,
// tools, bench).
func (n *Node) RecoveryStatus() recovery.Status { return n.recmgr.Status() }

// RecoveryState returns the rejoin state machine's current position.
func (n *Node) RecoveryState() recovery.State { return n.recmgr.State() }

// DonorSessions lists this node's active donor-side catch-up sessions.
func (n *Node) DonorSessions() []recovery.SessionStatus { return n.donor.Sessions() }

// debugGauges contributes point-in-time values the registry does not track
// as counters: cache hit rates read from their owners on demand.
func (n *Node) debugGauges() map[string]uint64 {
	out := make(map[string]uint64, 8)
	bh, bm := n.db.BlockCacheStats()
	out["store.block_cache_hits"] = bh
	out["store.block_cache_misses"] = bm
	if c := n.rt.Cache(); c != nil {
		st := c.Stats()
		out["cache.hits"] = st.Hits
		out["cache.misses"] = st.Misses
		out["cache.validations"] = st.Validations
		out["cache.evictions"] = st.Evictions
		out["cache.bypass"] = st.Bypass
		out["cache.invalidations"] = st.Invalidations
	}
	sch, scm := n.db.StateCacheStats()
	out["store.state_cache_hits"] = sch
	out["store.state_cache_misses"] = scm
	warm, cold := n.rt.PoolStats()
	out["core.pool_warm"] = warm
	out["core.pool_cold"] = cold
	out["cluster.forwarded"] = n.forwarded.Load()
	out["repl.shipped_total"] = n.shipper.Shipped()
	d := n.dir.Load()
	out["shard.overrides"] = uint64(d.OverrideCount())
	out["shard.overrides_redundant"] = uint64(d.RedundantOverrides())
	out["cluster.fenced_objects"] = uint64(n.fenceCount.Load())
	out["move.in_flight"] = uint64(n.moveSrc.InFlight())
	out["move.inbound_sessions"] = uint64(n.moveTgt.Sessions())
	cs := vm.CompilerStats()
	out["vm.compiled_modules"] = cs.CompiledModules
	out["vm.interp_fallbacks"] = cs.InterpFallbacks
	out["vm.compile_ns"] = uint64(cs.CompileNs)
	if n.leases.Held() {
		out["lease.held_now"] = 1
	} else {
		out["lease.held_now"] = 0
	}
	if fault.Enabled() {
		// The plane is process-global; every node's /metrics shows the same
		// injected-fault truth, keyed fault.<site>.<action>.
		for k, v := range fault.Counters() {
			out["fault."+k] = v
		}
	}
	return out
}

// health backs /healthz: serving stops reporting healthy once Close began.
func (n *Node) health() error {
	select {
	case <-n.stop:
		return fmt.Errorf("cluster: node %s shutting down", n.addr)
	default:
		return nil
	}
}

// myGroup returns this node's group from the directory view.
func (n *Node) myGroup() (shard.Group, bool) {
	for _, g := range n.dir.Load().Groups() {
		if g.ID == n.opts.GroupID {
			return g, true
		}
	}
	return shard.Group{}, false
}

// deposed reports whether the view no longer lets this node act as its
// group's primary, following routeCheck's policy: another node is primary,
// or the group is missing from a coordinator-managed node's view. A node
// without coordinators and without its group is a static single-node
// deployment and stays primary for everything.
func (n *Node) deposed() (shard.Group, bool) {
	g, ok := n.myGroup()
	if !ok {
		return g, len(n.opts.Coordinators) > 0
	}
	return g, g.Primary != n.addr
}

// isPrimary reports whether this node is its group's primary.
func (n *Node) isPrimary() bool {
	g, ok := n.myGroup()
	return ok && g.Primary == n.addr
}

// refreshBackups re-derives the replication fan-out from the directory and
// stamps the shipper with the directory's epoch, so every shipped frame
// carries the configuration it was committed under (backups fence older
// epochs).
func (n *Node) refreshBackups() {
	n.shipper.SetEpoch(n.dir.Load().Epoch())
	g, ok := n.myGroup()
	if !ok || g.Primary != n.addr {
		n.shipper.SetBackups(nil)
		return
	}
	n.shipper.SetBackups(g.Backups)
}

// onBackupFailure reports a failed backup to the coordinator (which will
// reconfigure the group) and keeps serving.
func (n *Node) onBackupFailure(addr string, err error) {
	// The coordinator's failure detector learns about it via missing
	// heartbeats from the backup itself; nothing else to do here, but the
	// hook is kept for observability.
	_ = addr
	_ = err
}

// coordLoop heartbeats and refreshes configuration.
func (n *Node) coordLoop() {
	defer close(n.done)
	interval := n.opts.HeartbeatInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		// Heartbeat immediately on entry (the failure detector should see
		// a booting node as soon as it serves), then on every tick.
		n.coord.Heartbeat(n.addr, n.DebugAddr())
		if d, err := n.coord.GetConfig(); err == nil {
			if d.Epoch() > n.dir.Load().Epoch() {
				n.SetDirectory(d)
			}
		}
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
	}
}

// Close shuts the node down.
func (n *Node) Close() error {
	n.stopMu.Lock()
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.stopMu.Unlock()
	<-n.done
	if n.recmgrStarted {
		n.recmgr.Close()
	}
	if n.debugSrv != nil {
		n.debugSrv.Close()
	}
	if n.adm != nil {
		n.adm.Close()
	}
	n.moveTgt.Close()
	n.srv.Close()
	n.shipper.Close()
	n.pool.Close()
	return n.db.Close()
}

// peerHost reduces a remote address to its host for tenant attribution:
// every connection from a machine dials from a fresh ephemeral port, and
// per-port buckets would give each connection its own quota.
func peerHost(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// fenceObject makes routing reject the object with not-responsible
// plus a hint at its (future) home, ahead of the admission queue.
func (n *Node) fenceObject(object uint64, hint string) {
	n.fenceMu.Lock()
	n.fences[object] = hint
	n.fenceCount.Store(int32(len(n.fences)))
	n.fenceMu.Unlock()
}

// unfenceObject lifts a fence (move abort, or self-clear once the
// directory view caught up with a committed cutover).
func (n *Node) unfenceObject(object uint64) {
	n.fenceMu.Lock()
	delete(n.fences, object)
	n.fenceCount.Store(int32(len(n.fences)))
	n.fenceMu.Unlock()
}

// fencedHint reports whether the object is fenced; one atomic load when
// no fence is up.
func (n *Node) fencedHint(object uint64) (string, bool) {
	if n.fenceCount.Load() == 0 {
		return "", false
	}
	n.fenceMu.Lock()
	hint, ok := n.fences[object]
	n.fenceMu.Unlock()
	return hint, ok
}

// cutOverObject is the move's commit point: record the object's new
// home in the directory. Static mode mutates the (possibly shared)
// directory in place; coordinator mode proposes through the replicated
// log with the epoch fence, retrying with a refreshed view when a
// concurrent configuration change fences the proposal out — the
// quiesced state at both ends stays valid across retries. Moves back
// to the object's default hash placement clear the override instead of
// recording one, which is what keeps the override table from growing
// with every migration (compaction folds the rest).
func (n *Node) cutOverObject(object, targetGroup uint64) error {
	if n.coord == nil {
		d := n.dir.Load()
		home, err := d.DefaultGroupID(object)
		if err != nil {
			return err
		}
		if home == targetGroup {
			d.ClearOverride(object)
		} else {
			d.SetOverride(object, targetGroup)
		}
		n.refreshBackups()
		return nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		d, err := n.coord.GetConfig()
		if err == nil {
			// Re-validate against the fresh view: the move is only safe
			// while this node is still the object's primary and the
			// target group still exists.
			g, ok := groupIn(d, n.opts.GroupID)
			if !ok || g.Primary != n.addr {
				return fmt.Errorf("cluster: cutover of %d abandoned: no longer primary of group %d", object, n.opts.GroupID)
			}
			if _, ok := groupIn(d, targetGroup); !ok {
				return fmt.Errorf("cluster: cutover of %d abandoned: target group %d is gone", object, targetGroup)
			}
			home, herr := d.DefaultGroupID(object)
			if herr != nil {
				return herr
			}
			if home == targetGroup {
				err = n.coord.ClearOverride(object, d.Epoch())
			} else {
				err = n.coord.SetOverrideFenced(object, targetGroup, d.Epoch())
			}
			if err == nil {
				// Confirm by readback: an epoch-fenced proposal that lost
				// the race is a silent no-op, so only the directory's own
				// answer proves the cutover landed.
				if nd, gerr := n.coord.GetConfig(); gerr == nil {
					if g, lerr := nd.Lookup(object); lerr == nil && g.ID == targetGroup {
						n.SetDirectory(nd)
						return nil
					}
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: cutover of %d to group %d did not take effect", object, targetGroup)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func groupIn(d *shard.Directory, id uint64) (shard.Group, bool) {
	for _, g := range d.Groups() {
		if g.ID == id {
			return g, true
		}
	}
	return shard.Group{}, false
}

// routeCheck decides whether this node may execute the invocation:
// primaries execute everything; backups execute explicitly read-only
// requests (paper §4.2.1: "read-only functions can execute at any replica").
func (n *Node) routeCheck(obj core.ObjectID, readOnly bool) error {
	d := n.dir.Load()
	if hint, fenced := n.fencedHint(uint64(obj)); fenced {
		// Quiesced for (or moved by) a live migration. Once this node's
		// view maps the object to another group the cutover has
		// committed and propagated — the fence has done its job.
		if g, err := d.Lookup(uint64(obj)); err == nil && g.ID != n.opts.GroupID {
			n.unfenceObject(uint64(obj))
			return notResponsibleError(g.Primary)
		}
		return notResponsibleError(hint)
	}
	g, err := d.Lookup(uint64(obj))
	if err != nil {
		if len(n.opts.Coordinators) > 0 {
			// A coordinator-managed node without a configuration cannot
			// assume it is anyone's primary: a deposed primary restarting
			// with an empty view would otherwise acknowledge writes without
			// replicating them (zombie primary). Reject until the first
			// config refresh; the client refreshes and re-routes.
			return notResponsibleError("")
		}
		// No configuration, static mode: single-node deployments execute
		// everything.
		return nil
	}
	if g.Primary == n.addr {
		return nil
	}
	if readOnly {
		for _, b := range g.Backups {
			if b != n.addr {
				continue
			}
			// A backup serves a read only under a valid lease: right
			// epoch, unexpired, apply lag in bounds. Anything else —
			// the lease died with a reconfiguration, the primary
			// stopped renewing — bounces to the primary, which is
			// always safe.
			if n.leases.Valid() {
				n.backupServed.Inc()
				return nil
			}
			n.primaryBounce.Inc()
			break
		}
	}
	return notResponsibleError(g.Primary)
}

// registerHandlers wires the RPC surface.
func (n *Node) registerHandlers() {
	replication.RegisterBackupLeased(n.srv, n.db, replication.BulkApplierFunc(
		func(object uint64, b *store.Batch) error {
			return n.rt.ApplyReplicated(core.ObjectID(object), b)
		},
		n.rt.ApplyReplicatedBulk), n.tracer, n.metrics,
		func() uint64 { return n.dir.Load().Epoch() }, n.leases)

	recovery.RegisterDonor(n.srv, n.donor)
	n.recmgr.RegisterForward(n.srv)
	recovery.RegisterMover(n.srv, n.moveTgt)

	n.srv.Handle(MethodPing, func(body []byte) ([]byte, error) {
		return []byte(n.addr), nil
	})

	n.srv.HandleCtx(MethodInvoke, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		req, err := decodeInvokeReq(body)
		if err != nil {
			return nil, err
		}
		if err := n.routeCheck(req.object, req.readOnly); err != nil {
			// The client may not have flagged the request read-only, but
			// the VM's module analysis can prove the method never touches
			// the write buffer — such invocations are safe at any leased
			// replica, so re-route them as reads instead of bouncing.
			if !req.readOnly && n.rt.MethodRoutableReadOnly(req.object, req.method) {
				err = n.routeCheck(req.object, true)
			}
			if err != nil {
				return nil, err
			}
		}
		if n.adm != nil {
			// Shed-before-execute: an overload rejection happens strictly
			// before the runtime sees the request, so no invocation that
			// reached commit (and thus no acked write) is ever shed.
			tenant := req.tenant
			if tenant == "" {
				tenant = peerHost(info.Peer)
			}
			release, aerr := n.adm.Admit(tenant)
			if aerr != nil {
				return nil, aerr
			}
			t0 := time.Now()
			defer func() {
				n.adm.Observe(time.Since(t0))
				release()
			}()
		} else if n.invSem != nil {
			n.invSem <- struct{}{}
			defer func() { <-n.invSem }()
		}
		resp, err := n.rt.InvokeCtx(req.object, req.method, req.args, core.CallCtx{Trace: info.Trace})
		if err != nil && errors.Is(err, core.ErrNoSuchObject) {
			// The object may have been migrated away while this request
			// sat in the admission queue (a move deletes the local copy
			// under the same lock). If the directory now maps it
			// elsewhere, convert to a routing redirect so the client
			// retries at the new home instead of surfacing a spurious
			// no-such-object.
			if g, lerr := n.dir.Load().Lookup(uint64(req.object)); lerr == nil && g.ID != n.opts.GroupID {
				return nil, notResponsibleError(g.Primary)
			}
		}
		return resp, err
	})

	n.srv.HandleCtx(MethodInvokeTx, func(info rpc.CallInfo, body []byte) ([]byte, error) {
		req, err := decodeTxReq(body)
		if err != nil {
			return nil, err
		}
		// Transactions are single-node: every object must be homed here.
		for _, c := range req.calls {
			if err := n.routeCheck(c.Object, false); err != nil {
				return nil, err
			}
		}
		results, err := n.rt.InvokeTransactionCtx(req.calls, core.CallCtx{Trace: info.Trace})
		if err != nil {
			return nil, err
		}
		return encodeTxResp(results), nil
	})

	n.srv.Handle(MethodCreate, func(body []byte) ([]byte, error) {
		req, err := decodeCreateReq(body)
		if err != nil {
			return nil, err
		}
		if err := n.routeCheck(req.object, false); err != nil {
			return nil, err
		}
		return nil, n.rt.CreateObject(req.typeName, req.object)
	})

	n.srv.Handle(MethodDelete, func(body []byte) ([]byte, error) {
		obj, _, err := wire.Uvarint(body)
		if err != nil {
			return nil, err
		}
		if err := n.routeCheck(core.ObjectID(obj), false); err != nil {
			return nil, err
		}
		return nil, n.rt.DeleteObject(core.ObjectID(obj))
	})

	n.srv.Handle(MethodRegisterType, func(body []byte) ([]byte, error) {
		t, err := core.DecodeObjectType(body)
		if err != nil {
			return nil, err
		}
		return nil, n.rt.RegisterType(t)
	})

	n.srv.Handle(MethodSetDirectory, func(body []byte) ([]byte, error) {
		d, err := shard.Load(body)
		if err != nil {
			return nil, err
		}
		n.SetDirectory(d)
		return nil, nil
	})

	n.srv.Handle(MethodMigrate, func(body []byte) ([]byte, error) {
		req, err := decodeMigrateReq(body)
		if err != nil {
			return nil, err
		}
		if err := n.moveSrc.Move(uint64(req.object), req.destPrimary, req.destGroup); err != nil {
			return nil, err
		}
		n.migrations.Inc()
		return nil, nil
	})

	n.srv.Handle(MethodIngest, func(body []byte) ([]byte, error) {
		req, err := decodeIngestReq(body)
		if err != nil {
			return nil, err
		}
		b := store.NewBatch()
		for i := range req.keys {
			b.Put(req.keys[i], req.values[i])
		}
		if err := n.rt.ApplyReplicated(req.object, b); err != nil {
			return nil, err
		}
		// Fan the ingested state out to this group's backups so replica
		// reads work immediately after the migration.
		n.shipper.Ship(uint64(req.object), b) //nolint:errcheck // best effort
		return nil, nil
	})

	n.srv.Handle(MethodHotObjects, func(body []byte) ([]byte, error) {
		limit, _, err := wire.Uvarint(body)
		if err != nil {
			return nil, err
		}
		return encodeHotResp(n.rt.HotObjects(int(limit))), nil
	})

	n.srv.Handle(MethodHotWindow, func(body []byte) ([]byte, error) {
		limit, _, err := wire.Uvarint(body)
		if err != nil {
			return nil, err
		}
		return encodeHotResp(n.rt.HotWindow(int(limit))), nil
	})

	n.srv.Handle(MethodStats, func(body []byte) ([]byte, error) {
		inv, com := n.rt.Stats()
		warm, cold := n.rt.PoolStats()
		line := fmt.Sprintf("addr=%s primary=%v invocations=%d commits=%d warm=%d cold=%d shipped=%d",
			n.addr, n.isPrimary(), inv, com, warm, cold, n.shipper.Shipped())
		line += fmt.Sprintf(" lease_held=%v reads_backup_served=%d reads_primary_bounced=%d",
			n.leases.Held(), n.backupServed.Value(), n.primaryBounce.Value())
		if c := n.rt.Cache(); c != nil {
			st := c.Stats()
			line += fmt.Sprintf(" cache_hits=%d cache_misses=%d cache_bypass=%d cache_invalidations=%d",
				st.Hits, st.Misses, st.Bypass, st.Invalidations)
		}
		cs := vm.CompilerStats()
		line += fmt.Sprintf(" vm_compiled=%d vm_fallbacks=%d vm_compile_ns=%d",
			cs.CompiledModules, cs.InterpFallbacks, cs.CompileNs)
		return []byte(line), nil
	})
}

// routerInvoker routes a nested cross-object invocation: objects homed on
// this node run locally; everything else goes to the responsible primary
// over RPC (the aggregated design's only extra hop).
type routerInvoker struct{ node *Node }

func (r *routerInvoker) Invoke(id core.ObjectID, method string, args [][]byte) ([]byte, error) {
	return r.InvokeCtx(id, method, args, core.CallCtx{})
}

// InvokeDepth preserves nested-call depth on local hops; remote hops reset
// it (bounded by RPC timeouts instead).
func (r *routerInvoker) InvokeDepth(id core.ObjectID, method string, args [][]byte, depth int) ([]byte, error) {
	return r.InvokeCtx(id, method, args, core.CallCtx{Depth: depth})
}

// InvokeCtx routes with full call context: local hops keep depth and trace;
// remote hops record an "rpc" span whose context crosses the wire, so the
// callee's invoke span nests under it.
func (r *routerInvoker) InvokeCtx(id core.ObjectID, method string, args [][]byte, cc core.CallCtx) ([]byte, error) {
	n := r.node
	d := n.dir.Load()
	g, err := d.Lookup(uint64(id))
	if err != nil || g.Primary == n.addr || g.Primary == "" {
		return n.rt.InvokeCtx(id, method, args, cc)
	}
	n.forwarded.Add(1)
	n.forwards.Inc()
	sp := n.tracer.StartSpan(cc.Trace, "rpc")
	wireCtx := sp.Context()
	if !wireCtx.Valid() {
		wireCtx = cc.Trace
	}
	body := encodeInvokeReq(&invokeReq{object: id, method: method, args: args})
	resp, err := n.pool.CallCtx(g.Primary, wireCtx, MethodInvoke, body)
	sp.FinishErr(err)
	return resp, err
}
