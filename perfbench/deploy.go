package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"lambdastore/internal/baseline"
	"lambdastore/internal/bench"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/workload"
)

// replicas is the size of the one replica group both deployments run.
const replicas = 3

// flushPolicy states the durability setting of both deployments: the one
// cmd/retwis-bench uses (bench.DefaultOptions), which the paper measured,
// and when the benchmark has the stores flush and compact (compactionGate).
const flushPolicy = "WAL append on every commit, no fsync (store SyncWrites off, LB SyncLog off); " +
	"ack after synchronous replication to both backups; " + quiescePolicy

// rpcOptions are the client options bench.StartAggregated gives its own
// clients; the benchmark's clients use the same.
func rpcOptions() *rpc.ClientOptions {
	return &rpc.ClientOptions{Timeout: 120 * time.Second}
}

// deployment is one booted system under test with the handles the
// benchmark reads each layer's work from. Exactly one of agg and dis is set.
type deployment struct {
	agg *aggregated
	dis *disaggregated

	// primaryDir is the primary storage node's data directory.
	primaryDir string
	// create and setup serve population; invoke is the measured entry point.
	create func(id uint64) error
	setup  workload.Invoker
	invoke func(object uint64, method string, args [][]byte) ([]byte, error)
	close  func()
	// gate holds the stores' flushes and compactions out of the jobs;
	// every set-up call and job passes through it.
	gate *compactionGate
}

type aggregated struct {
	nodes  []*cluster.Node // nodes[0] is the primary
	client *cluster.Client
}

type disaggregated struct {
	storage    []*baseline.StorageNode // storage[0] is the primary
	storeRegs  []*telemetry.Registry   // one per storage node
	compute    *baseline.ComputeNode
	computeReg *telemetry.Registry
	lb         *baseline.LoadBalancer
	pool       *rpc.Pool
}

// startAggregated boots LambdaStore through bench.StartAggregated, with the
// settings of cmd/retwis-bench, and adds one measurement client. root must
// be an empty directory; closing the deployment removes it.
func startAggregated(root string) (*deployment, error) {
	opts := bench.DefaultOptions()
	opts.Replicas = replicas
	opts.DataRoot = root
	d, err := bench.StartAggregated(opts)
	if err != nil {
		return nil, fmt.Errorf("start aggregated: %w", err)
	}
	client, err := cluster.NewClient(cluster.ClientConfig{Directory: d.Dir, RPC: rpcOptions()})
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("start aggregated client: %w", err)
	}
	dirs, err := filepath.Glob(filepath.Join(root, "lambdastore-agg-node0-*"))
	if err != nil || len(dirs) != 1 {
		client.Close()
		d.Close()
		return nil, fmt.Errorf("start aggregated: primary data directory not found under %s", root)
	}
	regs := make([]*telemetry.Registry, len(d.Nodes))
	for i, n := range d.Nodes {
		regs[i] = n.Metrics()
	}
	gate, err := newCompactionGate(nodeStores(d.Nodes), regs)
	if err != nil {
		client.Close()
		d.Close()
		return nil, fmt.Errorf("start aggregated: %w", err)
	}
	readOnly := make(map[string]bool)
	for _, m := range retwis.Methods {
		readOnly[m.Name] = m.ReadOnly
	}
	return &deployment{
		agg:        &aggregated{nodes: d.Nodes, client: client},
		primaryDir: dirs[0],
		create:     d.Create,
		setup:      d.Invoker,
		invoke: func(object uint64, method string, args [][]byte) ([]byte, error) {
			if readOnly[method] {
				return client.InvokeRead(core.ObjectID(object), method, args)
			}
			return client.Invoke(core.ObjectID(object), method, args)
		},
		close: func() {
			client.Close()
			d.Close()
			os.RemoveAll(root)
		},
		gate: gate,
	}, nil
}

// startDisaggregated boots the paper's baseline from the same constructors
// bench.StartDisaggregated uses, with the same settings, keeping the node
// handles and giving the compute and storage nodes metric registries. root
// must be an empty directory; closing the deployment removes it.
func startDisaggregated(root string) (_ *deployment, err error) {
	dis := &disaggregated{}
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
			err = fmt.Errorf("start disaggregated: %w", err)
		}
	}()
	closers = append(closers, func() { os.RemoveAll(root) })

	// Backups first, so the primary can name them.
	dirs := make([]string, replicas)
	for i := range dirs {
		if dirs[i], err = os.MkdirTemp(root, fmt.Sprintf("dis-storage%d-*", i)); err != nil {
			return nil, err
		}
	}
	dis.storage = make([]*baseline.StorageNode, replicas)
	dis.storeRegs = make([]*telemetry.Registry, replicas)
	var backups []string
	for i := replicas - 1; i >= 0; i-- {
		reg := telemetry.NewRegistry()
		o := baseline.StorageOptions{
			Addr:          "127.0.0.1:0",
			DataDir:       dirs[i],
			Store:         &store.Options{Metrics: reg},
			ClientOptions: rpcOptions(),
		}
		if i == 0 {
			o.Backups = backups
		}
		n, err := baseline.StartStorage(o)
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { n.Close() })
		dis.storage[i], dis.storeRegs[i] = n, reg
		if i > 0 {
			backups = append(backups, n.Addr())
		}
	}
	primary := dis.storage[0]

	dis.computeReg = telemetry.NewRegistry()
	if dis.compute, err = baseline.StartCompute(baseline.ComputeOptions{
		Addr:          "127.0.0.1:0",
		Storage:       primary.Addr(),
		ClientOptions: rpcOptions(),
		Metrics:       dis.computeReg,
	}); err != nil {
		return nil, err
	}
	closers = append(closers, func() { dis.compute.Close() })

	logDir, err := os.MkdirTemp(root, "dis-lblog-*")
	if err != nil {
		return nil, err
	}
	if dis.lb, err = baseline.StartLB(baseline.LBOptions{
		Addr:          "127.0.0.1:0",
		LogDir:        logDir,
		Computes:      []string{dis.compute.Addr()},
		ClientOptions: rpcOptions(),
	}); err != nil {
		return nil, err
	}
	closers = append(closers, func() { dis.lb.Close() })
	dis.compute.SetLoadBalancer(dis.lb.Addr())

	typ, err := retwis.NewType()
	if err != nil {
		return nil, err
	}
	dis.pool = rpc.NewPool(rpcOptions())
	closers = append(closers, dis.pool.Close)
	if _, err = dis.pool.Call(primary.Addr(), baseline.MethodRegType, typ.Encode()); err != nil {
		return nil, err
	}
	client := baseline.NewDirectClient(dis.compute.Addr(), rpcOptions())
	closers = append(closers, client.Close)
	stores := make([]*store.DB, replicas)
	for i, n := range dis.storage {
		stores[i] = n.DB()
	}
	gate, err := newCompactionGate(stores, dis.storeRegs)
	if err != nil {
		return nil, err
	}

	return &deployment{
		dis:        dis,
		primaryDir: dirs[0],
		create: func(id uint64) error {
			_, err := dis.pool.Call(primary.Addr(), baseline.MethodCreate,
				baseline.EncodeCreateReq(id, retwis.TypeName))
			return err
		},
		setup:  workload.InvokerFunc(client.Invoke),
		invoke: client.Invoke,
		close:  closeAll,
		gate:   gate,
	}, nil
}

// stores are the storage nodes' stores, the primary's first.
func (d *deployment) stores() []*store.DB { return d.gate.stores }

func nodeStores(nodes []*cluster.Node) []*store.DB {
	out := make([]*store.DB, len(nodes))
	for i, n := range nodes {
		out[i] = n.DB()
	}
	return out
}

// listLens reads one list field's length for every account on every replica
// of the group; out[r][i] is replica r's length for account i.
func (d *deployment) listLens(cfg workload.Config, field string) ([][]uint64, error) {
	var out [][]uint64
	read := func(get func(id core.ObjectID) (uint64, error)) error {
		lens := make([]uint64, cfg.Accounts)
		for i := range lens {
			n, err := get(core.ObjectID(cfg.AccountID(i)))
			if err != nil {
				return fmt.Errorf("read %s length of account %d: %w", field, cfg.AccountID(i), err)
			}
			lens[i] = n
		}
		out = append(out, lens)
		return nil
	}
	if d.agg != nil {
		for _, n := range d.agg.nodes {
			if err := read(func(id core.ObjectID) (uint64, error) {
				return n.Runtime().ListLen(id, field)
			}); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for _, n := range d.dis.storage {
		if err := read(func(id core.ObjectID) (uint64, error) {
			v, err := n.DB().Get(core.ListLenKey(id, field))
			if errors.Is(err, store.ErrNotFound) {
				return 0, nil
			}
			return core.DecodeU64(v), err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir. A file that a
// background compaction deletes during the walk is not counted.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
