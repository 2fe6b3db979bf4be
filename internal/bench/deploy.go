// Package bench is the experiment harness: it boots complete aggregated
// (LambdaStore) and disaggregated (conventional serverless) deployments on
// loopback TCP and regenerates every table and figure of the paper's
// evaluation — Figure 1 (normalized Retwis throughput), Figure 2 (median +
// p99 latency), Table 1's measurable latency bands — plus the ablations
// called out in DESIGN.md.
package bench

import (
	"fmt"
	"os"
	"time"

	"lambdastore/internal/baseline"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/store"
	"lambdastore/internal/workload"
)

// Options scales an experiment run. The paper's full configuration is
// Accounts=10000, Concurrency=100, Replicas=3; tests use smaller values.
type Options struct {
	Accounts       int
	Concurrency    int
	OpsPerWorkload int
	Replicas       int // storage nodes per group (1 primary + N-1 backups)
	NetDelay       time.Duration
	CacheEntries   int
	Fuel           int64
	DataRoot       string // parent directory for node data (temp if empty)
	ColdPerInvoke  bool   // disaggregated cold-start emulation (Table 1)
	// SyncWrites fsyncs the WAL on every commit (the durability-honest
	// configuration).
	SyncWrites bool
	Tracing    bool // record spans for every invocation

	// Admission plane knobs (benchmarked by RunOverload).
	MaxConcurrentInvokes int           // execution slots per node (0 = ungated)
	AdmissionQueue       int           // bounded wait queue (0 = plane off)
	AdmissionDeadline    time.Duration // max queue wait before shedding
	AdmissionLIFO        bool          // drain newest-first
	TenantQPS            float64       // per-tenant token-bucket limit

	Verbose bool
}

// DefaultOptions returns a laptop-scale configuration.
func DefaultOptions() Options {
	return Options{
		Accounts:       10000,
		Concurrency:    100,
		OpsPerWorkload: 5000,
		Replicas:       3,
		CacheEntries:   64 << 10,
	}
}

// tempDir creates a scratch directory under DataRoot.
func (o *Options) tempDir(name string) (string, error) {
	root := o.DataRoot
	if root == "" {
		root = os.TempDir()
	}
	return os.MkdirTemp(root, "lambdastore-"+name+"-*")
}

// groupCommitWait is the store's group-commit leader linger: the fsync
// amortization window (it only engages under SyncWrites).
const groupCommitWait = 2 * time.Millisecond

// clientOpts builds the RPC options with injected network delay.
func (o *Options) clientOpts() *rpc.ClientOptions {
	return &rpc.ClientOptions{
		Delay:   o.NetDelay,
		Timeout: 120 * time.Second,
	}
}

// Deployment is one bootable architecture under test.
type Deployment struct {
	Name    string
	Invoker workload.Invoker
	// Create instantiates an object of the Retwis User type.
	Create func(id uint64) error
	// Nodes exposes the aggregated deployment's cluster nodes (nil for the
	// disaggregated baseline), so callers can read per-node registries.
	Nodes []*cluster.Node
	// Dir is the aggregated deployment's shared directory (nil for the
	// disaggregated baseline) — extra clients with their own read policies
	// can be built against it.
	Dir *shard.Directory

	closers []func()
	cleanup []string
}

// Close tears the deployment down and removes its data directories.
func (d *Deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	for _, dir := range d.cleanup {
		os.RemoveAll(dir)
	}
}

// readOnlyMethods marks the Retwis methods eligible for replica reads.
var readOnlyMethods = func() map[string]bool {
	m := make(map[string]bool)
	for _, mi := range retwis.Methods {
		if mi.ReadOnly {
			m[mi.Name] = true
		}
	}
	return m
}()

// StartAggregated boots the paper's aggregated configuration: one replica
// group of opts.Replicas storage nodes executing methods in place, clients
// contacting the responsible node directly.
func StartAggregated(opts Options) (*Deployment, error) {
	d := &Deployment{Name: "Aggregated"}
	dir := shard.NewDirectory(nil)
	var nodes []*cluster.Node
	for i := 0; i < opts.Replicas; i++ {
		dataDir, err := d.scratch(&opts, fmt.Sprintf("agg-node%d", i))
		if err != nil {
			d.Close()
			return nil, err
		}
		node, err := cluster.StartNode(cluster.NodeOptions{
			Addr:    "127.0.0.1:0",
			DataDir: dataDir,
			GroupID: 0,
			Store: &store.Options{
				SyncWrites:      opts.SyncWrites,
				GroupCommitWait: groupCommitWait,
			},
			Runtime: core.Options{
				Fuel:         opts.Fuel,
				CacheEntries: opts.CacheEntries,
			},
			Directory:            dir,
			ClientOptions:        opts.clientOpts(),
			Tracing:              opts.Tracing,
			MaxConcurrentInvokes: opts.MaxConcurrentInvokes,
			AdmissionQueue:       opts.AdmissionQueue,
			AdmissionDeadline:    opts.AdmissionDeadline,
			AdmissionLIFO:        opts.AdmissionLIFO,
			TenantQPS:            opts.TenantQPS,
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.closers = append(d.closers, func() { node.Close() })
		nodes = append(nodes, node)
	}
	d.Nodes = nodes
	d.Dir = dir
	g := shard.Group{ID: 0, Primary: nodes[0].Addr()}
	for _, b := range nodes[1:] {
		g.Backups = append(g.Backups, b.Addr())
	}
	dir.SetGroup(g)
	for _, n := range nodes {
		n.SetDirectory(dir)
	}

	client, err := cluster.NewClient(cluster.ClientConfig{
		Directory: dir,
		RPC:       opts.clientOpts(),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.closers = append(d.closers, client.Close)

	typ, err := retwis.NewType()
	if err != nil {
		d.Close()
		return nil, err
	}
	if err := client.RegisterType(typ); err != nil {
		d.Close()
		return nil, err
	}

	d.Invoker = workload.InvokerFunc(func(object uint64, method string, args [][]byte) ([]byte, error) {
		if readOnlyMethods[method] {
			return client.InvokeRead(core.ObjectID(object), method, args)
		}
		return client.Invoke(core.ObjectID(object), method, args)
	})
	d.Create = func(id uint64) error {
		return client.CreateObject(retwis.TypeName, core.ObjectID(id))
	}
	return d, nil
}

// StartDisaggregated boots the paper's baseline: a storage replica group
// of opts.Replicas nodes, one dedicated compute node executing the same
// guest modules against storage over the network, and a load balancer with
// a durable request log used for nested invocations. Clients contact the
// compute node directly, matching the paper's measured configuration.
func StartDisaggregated(opts Options) (*Deployment, error) {
	d := &Deployment{Name: "Disaggregated"}

	// Storage group: primary + backups.
	var backups []string
	var backupNodes []*baseline.StorageNode
	for i := 1; i < opts.Replicas; i++ {
		dataDir, err := d.scratch(&opts, fmt.Sprintf("dis-backup%d", i))
		if err != nil {
			d.Close()
			return nil, err
		}
		b, err := baseline.StartStorage(baseline.StorageOptions{
			Addr:          "127.0.0.1:0",
			DataDir:       dataDir,
			ClientOptions: opts.clientOpts(),
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.closers = append(d.closers, func() { b.Close() })
		backups = append(backups, b.Addr())
		backupNodes = append(backupNodes, b)
	}
	dataDir, err := d.scratch(&opts, "dis-primary")
	if err != nil {
		d.Close()
		return nil, err
	}
	primary, err := baseline.StartStorage(baseline.StorageOptions{
		Addr:          "127.0.0.1:0",
		DataDir:       dataDir,
		Backups:       backups,
		ClientOptions: opts.clientOpts(),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.closers = append(d.closers, func() { primary.Close() })

	// Compute node.
	compute, err := baseline.StartCompute(baseline.ComputeOptions{
		Addr:          "127.0.0.1:0",
		Storage:       primary.Addr(),
		Fuel:          opts.Fuel,
		ClientOptions: opts.clientOpts(),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.closers = append(d.closers, func() { compute.Close() })

	// Load balancer for nested invocations.
	logDir, err := d.scratch(&opts, "dis-lblog")
	if err != nil {
		d.Close()
		return nil, err
	}
	lb, err := baseline.StartLB(baseline.LBOptions{
		Addr:          "127.0.0.1:0",
		LogDir:        logDir,
		Computes:      []string{compute.Addr()},
		ClientOptions: opts.clientOpts(),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.closers = append(d.closers, func() { lb.Close() })
	compute.SetLoadBalancer(lb.Addr())

	// Install the Retwis type at the storage layer.
	typ, err := retwis.NewType()
	if err != nil {
		d.Close()
		return nil, err
	}
	pool := rpc.NewPool(opts.clientOpts())
	d.closers = append(d.closers, pool.Close)
	if _, err := pool.Call(primary.Addr(), baseline.MethodRegType, typ.Encode()); err != nil {
		d.Close()
		return nil, err
	}

	client := baseline.NewDirectClient(compute.Addr(), opts.clientOpts())
	d.closers = append(d.closers, client.Close)

	d.Invoker = workload.InvokerFunc(client.Invoke)
	d.Create = func(id uint64) error {
		_, err := pool.Call(primary.Addr(), baseline.MethodCreate,
			baseline.EncodeCreateReq(id, retwis.TypeName))
		return err
	}
	return d, nil
}

// scratch allocates and tracks a data directory.
func (d *Deployment) scratch(opts *Options, name string) (string, error) {
	dir, err := opts.tempDir(name)
	if err != nil {
		return "", err
	}
	d.cleanup = append(d.cleanup, dir)
	return dir, nil
}
