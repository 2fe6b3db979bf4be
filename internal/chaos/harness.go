package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lambdastore/internal/cluster"
	"lambdastore/internal/coordinator"
	"lambdastore/internal/paxos"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
)

// Options configures a chaos cluster.
type Options struct {
	// Nodes is the storage node count; all join group 0, first node is
	// the initial primary (default 3).
	Nodes int
	// Coordinators is the coordinator replica count (default 3).
	Coordinators int
	// BaseDir holds one data directory per storage node (required; the
	// harness creates node<i> subdirectories). Restarts reuse them.
	BaseDir string
	// HeartbeatInterval is the storage nodes' liveness report period
	// (default 50ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a silent node stays "alive" at the
	// coordinator (default 300ms).
	HeartbeatTimeout time.Duration
	// CheckInterval is the failure-detector sweep period (default 50ms).
	CheckInterval time.Duration
	// ClientRetries bounds the cluster client's per-invoke retry loop
	// (default 4; recovery loops retry whole invokes on top).
	ClientRetries int
	// RejoinMaxBytesPerSec rate-limits recovery chunk streaming on every
	// node (0 = unlimited).
	RejoinMaxBytesPerSec int
	// ExtraGroupNodes, when > 0, adds a second replica group (ID 1) of
	// that many nodes — the target side of live-migration scenarios.
	// Zero keeps the classic single-group topology.
	ExtraGroupNodes int
	// MoveSessionTimeout tunes the nodes' inbound-move janitor (how long
	// an abandoned migration session may sit before its partial copy is
	// reclaimed). Zero keeps the node default.
	MoveSessionTimeout time.Duration
	// AdmissionQueue, when > 0, arms every node's admission plane (bounded
	// wait queue + deadline shedding) — the overload scenarios' subject.
	AdmissionQueue int
	// AdmissionDeadline bounds queue wait before a shed (0 = plane default).
	AdmissionDeadline time.Duration
	// AdmissionWorkers sizes each node's execution slots (0 = NumCPU).
	AdmissionWorkers int
}

func (o *Options) defaults() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Coordinators <= 0 {
		o.Coordinators = 3
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 300 * time.Millisecond
	}
	if o.CheckInterval <= 0 {
		o.CheckInterval = 50 * time.Millisecond
	}
}

// nodeSlot tracks one storage node across kill/restart cycles: the
// concrete address and data directory survive the process-local "death"
// so a restart is a faithful crash-recovery (WAL replay, same identity).
type nodeSlot struct {
	addr    string
	dataDir string
	group   uint64
	node    *cluster.Node // nil while down
}

// Cluster is an in-process LambdaStore deployment under chaos: a
// Paxos-replicated coordinator ensemble plus one replica group of
// storage nodes with durable (fsync) write-ahead logging, fronted by a
// failover-aware client.
type Cluster struct {
	opts Options

	pool       *rpc.Pool
	coordSrvs  []*rpc.Server
	coordSvcs  []*coordinator.Service
	coordAddrs []string

	slots  []*nodeSlot
	client *cluster.Client
}

// Start boots coordinators and storage nodes and installs the group
// configuration. It returns once the initial primary is serving writes.
func Start(opts Options) (*Cluster, error) {
	opts.defaults()
	if opts.BaseDir == "" {
		return nil, fmt.Errorf("chaos: Options.BaseDir is required")
	}
	c := &Cluster{opts: opts, pool: rpc.NewPool(nil)}

	// Coordinator ensemble.
	ids := make([]uint64, opts.Coordinators)
	addrByID := make(map[uint64]string, opts.Coordinators)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	for _, id := range ids {
		svc := coordinator.New(id, ids, nil, coordinator.Options{
			HeartbeatTimeout: opts.HeartbeatTimeout,
			CheckInterval:    opts.CheckInterval,
		})
		srv := rpc.NewServer()
		coordinator.RegisterServer(srv, svc)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("chaos: coordinator serve: %w", err)
		}
		c.coordSvcs = append(c.coordSvcs, svc)
		c.coordSrvs = append(c.coordSrvs, srv)
		c.coordAddrs = append(c.coordAddrs, addr)
		addrByID[id] = addr
	}
	for _, svc := range c.coordSvcs {
		svc.SetTransport(paxos.NewRPCTransport(svc.Node(), c.pool, addrByID))
		svc.Start()
	}

	// Storage nodes: durable WAL so a restart is a real crash recovery.
	// Group 0 gets opts.Nodes members; an optional second group (ID 1)
	// gets opts.ExtraGroupNodes members for migration scenarios.
	total := opts.Nodes + opts.ExtraGroupNodes
	for i := 0; i < total; i++ {
		gid := uint64(0)
		if i >= opts.Nodes {
			gid = 1
		}
		dataDir := filepath.Join(opts.BaseDir, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			c.Close()
			return nil, err
		}
		slot := &nodeSlot{dataDir: dataDir, group: gid}
		node, err := cluster.StartNode(c.nodeOptions("127.0.0.1:0", dataDir, gid))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("chaos: start node %d: %w", i, err)
		}
		slot.addr = node.Addr()
		slot.node = node
		c.slots = append(c.slots, slot)
	}

	// Group configuration through the coordinator (first node of each
	// group primary).
	cc := coordinator.NewClient(c.pool, c.coordAddrs)
	g := shard.Group{ID: 0, Primary: c.slots[0].addr}
	for _, s := range c.slots[1:opts.Nodes] {
		g.Backups = append(g.Backups, s.addr)
	}
	if err := cc.SetGroup(g); err != nil {
		c.Close()
		return nil, fmt.Errorf("chaos: set group: %w", err)
	}
	if opts.ExtraGroupNodes > 0 {
		g1 := shard.Group{ID: 1, Primary: c.slots[opts.Nodes].addr}
		for _, s := range c.slots[opts.Nodes+1:] {
			g1.Backups = append(g1.Backups, s.addr)
		}
		if err := cc.SetGroup(g1); err != nil {
			c.Close()
			return nil, fmt.Errorf("chaos: set group 1: %w", err)
		}
	}

	client, err := cluster.NewClient(cluster.ClientConfig{
		Coordinators: c.coordAddrs,
		MaxRetries:   opts.ClientRetries,
		// Tight backoff pacing: the harness's failure-detector timeouts are
		// hundreds of milliseconds, so production retry delays would only
		// slow the schedule down without exercising anything extra.
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  25 * time.Millisecond,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.client = client

	// Wait until a coordinator majority has liveness entries for every
	// node, so the failure detector is actually watching before any
	// schedule starts killing things.
	deadline := time.Now().Add(10 * time.Second)
	for {
		covered := 0
		for _, svc := range c.coordSvcs {
			seen := svc.LastSeen()
			all := true
			for _, s := range c.slots {
				if age, ok := seen[s.addr]; !ok || age > opts.HeartbeatTimeout {
					all = false
					break
				}
			}
			if all {
				covered++
			}
		}
		if covered > len(c.coordSvcs)/2 {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.Close()
			return nil, fmt.Errorf("chaos: storage nodes never registered with the failure detector")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Client returns the failover-aware cluster client.
func (c *Cluster) Client() *cluster.Client { return c.client }

// CoordAddrs returns the coordinator replica addresses.
func (c *Cluster) CoordAddrs() []string { return c.coordAddrs }

// Coordinators returns the coordinator replica services (for invariant
// probes such as PromoteCounts).
func (c *Cluster) Coordinators() []*coordinator.Service { return c.coordSvcs }

// NodeAddr returns node i's stable address (valid across restarts).
func (c *Cluster) NodeAddr(i int) string { return c.slots[i].addr }

// NodeDataDir returns node i's data directory — the wal.sync fault key.
func (c *Cluster) NodeDataDir(i int) string { return c.slots[i].dataDir }

// Alive reports whether node i is currently running.
func (c *Cluster) Alive(i int) bool { return c.slots[i].node != nil }

// Nodes returns the storage node count.
func (c *Cluster) Nodes() int { return len(c.slots) }

// Kill crashes node i: the process-local equivalent of pulling the
// plug — connections drop, heartbeats stop, no graceful handoff beyond
// what Close's shutdown already does.
func (c *Cluster) Kill(i int) error {
	s := c.slots[i]
	if s.node == nil {
		return fmt.Errorf("chaos: node %d already down", i)
	}
	err := s.node.Close()
	s.node = nil
	return err
}

// nodeOptions builds the one NodeOptions every harness node (initial
// start and restart) uses: durable WAL, coordinator-managed, and the
// anti-entropy rejoin manager armed so any node that finds itself
// outside its group catches up from the primary and re-admits itself.
func (c *Cluster) nodeOptions(addr, dataDir string, group uint64) cluster.NodeOptions {
	return cluster.NodeOptions{
		Addr:                   addr,
		DataDir:                dataDir,
		Store:                  &store.Options{SyncWrites: true},
		GroupID:                group,
		Coordinators:           c.coordAddrs,
		HeartbeatInterval:      c.opts.HeartbeatInterval,
		Rejoin:                 true,
		RecoveryMaxBytesPerSec: c.opts.RejoinMaxBytesPerSec,
		MoveSessionTimeout:     c.opts.MoveSessionTimeout,
		MaxConcurrentInvokes:   c.opts.AdmissionWorkers,
		AdmissionQueue:         c.opts.AdmissionQueue,
		AdmissionDeadline:      c.opts.AdmissionDeadline,
		// Leases shorter than the failure-detector timeout: a deposed
		// primary's barrier (one lease TTL) always ends before the
		// coordinator can have promoted a successor, so a leased backup
		// can never serve state older than an acked write.
		LeaseTTL: 150 * time.Millisecond,
	}
}

// Restart brings a killed node back on its original address and data
// directory: state recovers from the WAL and SSTs, heartbeats resume.
// The node comes up as a spare, then its recovery manager notices it is
// not a member, catches up from the group's primary (range digests +
// chunk streaming) and re-admits it as a backup through the
// coordinator; WaitBackup observes the re-admission.
func (c *Cluster) Restart(i int) error {
	s := c.slots[i]
	if s.node != nil {
		return fmt.Errorf("chaos: node %d already up", i)
	}
	node, err := cluster.StartNode(c.nodeOptions(s.addr, s.dataDir, s.group))
	if err != nil {
		return fmt.Errorf("chaos: restart node %d: %w", i, err)
	}
	s.node = node
	return nil
}

// Node returns node i's live handle (nil while down) — recovery status
// and store probes for tests and the recovery bench.
func (c *Cluster) Node(i int) *cluster.Node { return c.slots[i].node }

// WaitBackup blocks until node i is a backup of group 0 on the
// coordinator majority's view (a completed rejoin).
func (c *Cluster) WaitBackup(i int, timeout time.Duration) error {
	return c.waitGroup(timeout, fmt.Sprintf("node %d to rejoin as backup", i), func(g shard.Group) bool {
		for _, b := range g.Backups {
			if b == c.slots[i].addr {
				return true
			}
		}
		return false
	})
}

// WaitEvicted blocks until node i is neither primary nor backup of
// group 0 (the failure detector noticed its death).
func (c *Cluster) WaitEvicted(i int, timeout time.Duration) error {
	return c.waitGroup(timeout, fmt.Sprintf("node %d to be evicted", i), func(g shard.Group) bool {
		if g.Primary == c.slots[i].addr {
			return false
		}
		for _, b := range g.Backups {
			if b == c.slots[i].addr {
				return false
			}
		}
		return true
	})
}

// waitGroup polls the coordinator majority's group 0 view until cond.
func (c *Cluster) waitGroup(timeout time.Duration, what string, cond func(shard.Group) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		g, err := c.Group()
		if err == nil && cond(g) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: waiting for %s: timed out (group %+v, err %v)", what, g, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Group returns the current group 0 configuration as the coordinator
// majority sees it.
func (c *Cluster) Group() (shard.Group, error) {
	return c.GroupByID(0)
}

// GroupByID returns one group's current configuration as the
// coordinator majority sees it.
func (c *Cluster) GroupByID(id uint64) (shard.Group, error) {
	cc := coordinator.NewClient(c.pool, c.coordAddrs)
	d, err := cc.GetConfig()
	if err != nil {
		return shard.Group{}, err
	}
	for _, g := range d.Groups() {
		if g.ID == id {
			return g, nil
		}
	}
	return shard.Group{}, fmt.Errorf("chaos: group %d not configured", id)
}

// GroupFor resolves the group currently serving an object (overrides
// included) on the coordinator majority's view.
func (c *Cluster) GroupFor(object uint64) (shard.Group, error) {
	cc := coordinator.NewClient(c.pool, c.coordAddrs)
	d, err := cc.GetConfig()
	if err != nil {
		return shard.Group{}, err
	}
	return d.Lookup(object)
}

// GroupNodes counts the harness slots configured into one group.
func (c *Cluster) GroupNodes(id uint64) int {
	n := 0
	for _, s := range c.slots {
		if s.group == id {
			n++
		}
	}
	return n
}

// NodeGroup returns the group node i was configured into.
func (c *Cluster) NodeGroup(i int) uint64 { return c.slots[i].group }

// RefreshClientConfig force-feeds the client the coordinator majority's
// current configuration (the client otherwise refreshes lazily on
// failures).
func (c *Cluster) RefreshClientConfig() error {
	cc := coordinator.NewClient(c.pool, c.coordAddrs)
	d, err := cc.GetConfig()
	if err != nil {
		return err
	}
	c.client.SetDirectory(d)
	return nil
}

// PrimaryIndex resolves the current primary to a node slot index.
func (c *Cluster) PrimaryIndex() (int, error) {
	g, err := c.Group()
	if err != nil {
		return -1, err
	}
	for i, s := range c.slots {
		if s.addr == g.Primary {
			return i, nil
		}
	}
	return -1, fmt.Errorf("chaos: primary %s is not a harness node", g.Primary)
}

// Close tears the whole cluster down (idempotent).
func (c *Cluster) Close() {
	if c.client != nil {
		c.client.Close()
		c.client = nil
	}
	for _, s := range c.slots {
		if s.node != nil {
			s.node.Close()
			s.node = nil
		}
	}
	for _, svc := range c.coordSvcs {
		svc.Close()
	}
	c.coordSvcs = nil
	for _, srv := range c.coordSrvs {
		srv.Close()
	}
	c.coordSrvs = nil
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
}
