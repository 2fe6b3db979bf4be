package bench

import (
	"fmt"
	"io"
	"time"

	"lambdastore/internal/baseline"
	"lambdastore/internal/retwis"
	"lambdastore/internal/rpc"
	"lambdastore/internal/vm"
	"lambdastore/internal/workload"
)

// StartDisaggregatedCold is the disaggregated deployment paying a cold
// start per invocation: no warm instance pool, a documented provisioning
// penalty per instantiation, and every job routed through the durable
// request log (Table 1's "conventional serverless" row).
func StartDisaggregatedCold(opts Options) (*Deployment, error) {
	d := &Deployment{Name: "Disaggregated (cold)"}

	dataDir, err := d.scratch(&opts, "cold-storage")
	if err != nil {
		d.Close()
		return nil, err
	}
	primary, err := baseline.StartStorage(baseline.StorageOptions{
		Addr:          "127.0.0.1:0",
		DataDir:       dataDir,
		ClientOptions: opts.clientOpts(),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.closers = append(d.closers, func() { primary.Close() })

	compute, err := baseline.StartCompute(baseline.ComputeOptions{
		Addr:             "127.0.0.1:0",
		Storage:          primary.Addr(),
		Fuel:             opts.Fuel,
		DisableWarmPool:  true,
		ColdStartPenalty: 100 * time.Millisecond, // emulated container boot
		ClientOptions:    opts.clientOpts(),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.closers = append(d.closers, func() { compute.Close() })

	logDir, err := d.scratch(&opts, "cold-lblog")
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

	// Jobs go through the LB (log + dispatch), like a real FaaS front door.
	client := baseline.NewClient(lb.Addr(), opts.clientOpts())
	d.closers = append(d.closers, client.Close)
	d.Invoker = workload.InvokerFunc(client.Invoke)
	d.Create = func(id uint64) error {
		_, err := pool.Call(primary.Addr(), baseline.MethodCreate,
			baseline.EncodeCreateReq(id, retwis.TypeName))
		return err
	}
	return d, nil
}

// AblationResult is one (configuration, measurement) pair.
type AblationResult struct {
	Config string
	Result workload.Result
}

// RunAblationCache measures A1: the consistent result cache on/off for the
// read-only GetTimeline workload on the aggregated architecture (§4.2.2).
// Caching targets functions "invoked frequently": the ablation therefore
// reads a small hot set of accounts repeatedly, the regime where cached
// results recur. (Uniform reads over a large population never repeat an
// invocation, so there the cache only adds read-set bookkeeping.)
func RunAblationCache(opts Options) ([]AblationResult, error) {
	var out []AblationResult
	for _, entries := range []int{0, 64 << 10} {
		o := opts
		o.CacheEntries = entries
		if o.Accounts > 64 {
			o.Accounts = 64
		}
		if o.OpsPerWorkload < 3000 {
			o.OpsPerWorkload = 3000
		}
		d, err := StartAggregated(o)
		if err != nil {
			return nil, err
		}
		cfg := workload.DefaultConfig(o.Accounts)
		if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
			d.Close()
			return nil, err
		}
		res, err := workload.RunClosedLoop(cfg, workload.GetTimeline, d.Invoker, o.Concurrency, o.OpsPerWorkload)
		d.Close()
		if err != nil {
			return nil, err
		}
		name := "cache=off"
		if entries > 0 {
			name = "cache=on"
		}
		out = append(out, AblationResult{Config: name, Result: res})
	}
	return out, nil
}

// RunAblationReplication measures A2: the cost of primary-backup
// replication at factors 1 (no backups), 2 and 3 on the mutating Follow
// workload (§4.2.1).
func RunAblationReplication(opts Options) ([]AblationResult, error) {
	var out []AblationResult
	for _, replicas := range []int{1, 2, 3} {
		o := opts
		o.Replicas = replicas
		d, err := StartAggregated(o)
		if err != nil {
			return nil, err
		}
		cfg := workload.DefaultConfig(o.Accounts)
		if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
			d.Close()
			return nil, err
		}
		res, err := workload.RunClosedLoop(cfg, workload.Follow, d.Invoker, o.Concurrency, o.OpsPerWorkload)
		d.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Config: fmt.Sprintf("replicas=%d", replicas), Result: res})
	}
	return out, nil
}

// RunAblationNetDelay measures A5: the aggregated/disaggregated gap as the
// injected one-way network delay grows — disaggregation pays the delay per
// storage operation, aggregation once per job.
func RunAblationNetDelay(opts Options, delays []time.Duration) (map[time.Duration][2]workload.Result, error) {
	out := make(map[time.Duration][2]workload.Result)
	for _, delay := range delays {
		o := opts
		o.NetDelay = delay
		agg, dis, err := runOneWorkloadBoth(o, workload.Post)
		if err != nil {
			return nil, err
		}
		out[delay] = [2]workload.Result{agg, dis}
	}
	return out, nil
}

// runOneWorkloadBoth runs a single workload on both architectures.
func runOneWorkloadBoth(opts Options, wl string) (agg, dis workload.Result, err error) {
	aggD, err := StartAggregated(opts)
	if err != nil {
		return agg, dis, err
	}
	cfg := workload.DefaultConfig(opts.Accounts)
	if err = workload.Populate(cfg, aggD.Create, aggD.Invoker); err != nil {
		aggD.Close()
		return agg, dis, err
	}
	agg, err = workload.RunClosedLoop(cfg, wl, aggD.Invoker, opts.Concurrency, opts.OpsPerWorkload)
	aggD.Close()
	if err != nil {
		return agg, dis, err
	}

	disD, err := StartDisaggregated(opts)
	if err != nil {
		return agg, dis, err
	}
	if err = workload.Populate(cfg, disD.Create, disD.Invoker); err != nil {
		disD.Close()
		return agg, dis, err
	}
	dis, err = workload.RunClosedLoop(cfg, wl, disD.Invoker, opts.Concurrency, opts.OpsPerWorkload)
	disD.Close()
	return agg, dis, err
}

// FuelAblation measures A3: the interpreter's metering overhead by running
// a compute-bound guest loop with and without a fuel budget.
func FuelAblation(iterations int) (metered, unmetered time.Duration, err error) {
	src := `
func spinsum params=1 locals=2
  push 0
  local.set 1
  push 0
  local.set 2
loop:
  local.get 2
  local.get 0
  ge_s
  jnz done
  local.get 1
  local.get 2
  add
  local.set 1
  local.get 2
  push 1
  add
  local.set 2
  jmp loop
done:
  local.get 1
  ret
end`
	mod, err := vm.Assemble(src)
	if err != nil {
		return 0, 0, err
	}
	run := func(fuel int64) (time.Duration, error) {
		inst, err := vm.NewInstance(mod, nil, fuel)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := inst.Call("spinsum", int64(iterations)); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	if metered, err = run(int64(iterations)*16 + 1024); err != nil {
		return 0, 0, err
	}
	if unmetered, err = run(0); err != nil {
		return 0, 0, err
	}
	return metered, unmetered, nil
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, title string, results []AblationResult) {
	fmt.Fprintln(w, title)
	for _, r := range results {
		fmt.Fprintf(w, "  %-16s %s\n", r.Config, r.Result)
	}
}
