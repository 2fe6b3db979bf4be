package lambdastore_test

// Benchmarks regenerating the paper's evaluation. Each benchmark boots the
// deployment under test on loopback, populates the Retwis dataset, and
// drives b.N closed-loop jobs, reporting throughput (implicit ns/op plus a
// jobs/s metric) and latency percentiles (p50-ms, p99-ms metrics):
//
//	Figure 1 & 2: BenchmarkFigure12_<Workload>_<Architecture>
//	Table 1:      BenchmarkTable1_<System>
//	Ablations:    BenchmarkAblation<Name>_<Config>
//
// Scale knobs (defaults keep `go test -bench` runs minutes-long; the
// retwis-bench and lambda-bench commands run the paper-scale versions):
//
//	LAMBDA_BENCH_ACCOUNTS     population size   (default 2000)
//	LAMBDA_BENCH_CONCURRENCY  closed-loop load  (default 50)

import (
	"os"
	"strconv"
	"testing"
	"time"

	"lambdastore/internal/bench"
	"lambdastore/internal/core"
	"lambdastore/internal/retwis"
	"lambdastore/internal/store"
	"lambdastore/internal/vm"
	"lambdastore/internal/workload"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func benchOptions(b *testing.B) bench.Options {
	b.Helper()
	opts := bench.DefaultOptions()
	opts.Accounts = envInt("LAMBDA_BENCH_ACCOUNTS", 2000)
	opts.Concurrency = envInt("LAMBDA_BENCH_CONCURRENCY", 50)
	opts.DataRoot = b.TempDir()
	return opts
}

// runWorkload measures b.N jobs of one workload against a deployment.
func runWorkload(b *testing.B, d *bench.Deployment, opts bench.Options, wl string) {
	b.Helper()
	cfg := workload.DefaultConfig(opts.Accounts)
	if err := workload.Populate(cfg, d.Create, d.Invoker); err != nil {
		b.Fatalf("populate: %v", err)
	}
	b.ResetTimer()
	res, err := workload.RunClosedLoop(cfg, wl, d.Invoker, opts.Concurrency, b.N)
	b.StopTimer()
	if err != nil {
		b.Fatalf("run: %v", err)
	}
	if res.Errors > 0 {
		b.Fatalf("%d errors during %s", res.Errors, wl)
	}
	b.ReportMetric(res.Throughput, "jobs/s")
	b.ReportMetric(float64(res.Latency.Median)/float64(time.Millisecond), "p50-ms")
	b.ReportMetric(float64(res.Latency.P99)/float64(time.Millisecond), "p99-ms")
}

func benchAggregated(b *testing.B, wl string) {
	opts := benchOptions(b)
	d, err := bench.StartAggregated(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	runWorkload(b, d, opts, wl)
}

func benchDisaggregated(b *testing.B, wl string) {
	opts := benchOptions(b)
	d, err := bench.StartDisaggregated(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	runWorkload(b, d, opts, wl)
}

// --- Figures 1 and 2: Retwis throughput and latency, both architectures ---

func BenchmarkFigure12_Post_Aggregated(b *testing.B)    { benchAggregated(b, workload.Post) }
func BenchmarkFigure12_Post_Disaggregated(b *testing.B) { benchDisaggregated(b, workload.Post) }

func BenchmarkFigure12_GetTimeline_Aggregated(b *testing.B) {
	benchAggregated(b, workload.GetTimeline)
}
func BenchmarkFigure12_GetTimeline_Disaggregated(b *testing.B) {
	benchDisaggregated(b, workload.GetTimeline)
}

func BenchmarkFigure12_Follow_Aggregated(b *testing.B)    { benchAggregated(b, workload.Follow) }
func BenchmarkFigure12_Follow_Disaggregated(b *testing.B) { benchDisaggregated(b, workload.Follow) }

// --- Table 1: latency bands of the four system classes ---

// BenchmarkTable1_CustomService is the hand-built microservice bound:
// native Go Retwis against a local embedded store (no VM, no network).
func BenchmarkTable1_CustomService(b *testing.B) {
	dir := b.TempDir()
	db, err := store.Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	id := core.ObjectID(1)
	if err := db.Put(core.ValueFieldKey(id, "name"), []byte("bench")); err != nil {
		b.Fatal(err)
	}
	entry := make([]byte, 116)
	// Seed a timeline.
	for i := uint64(0); i < 20; i++ {
		if err := db.Put(core.ListEntryKey(id, "timeline", i), entry); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Put(core.ListLenKey(id, "timeline"), core.EncodeU64(20)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := db.Get(core.ListLenKey(id, "timeline"))
		if err != nil {
			b.Fatal(err)
		}
		total := core.DecodeU64(n)
		start := uint64(0)
		if total > 10 {
			start = total - 10
		}
		for j := start; j < total; j++ {
			if _, err := db.Get(core.ListEntryKey(id, "timeline", j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1_LambdaObjects measures the aggregated design.
func BenchmarkTable1_LambdaObjects(b *testing.B) {
	benchAggregated(b, workload.GetTimeline)
}

// BenchmarkTable1_ServerlessWarm measures the disaggregated warm path.
func BenchmarkTable1_ServerlessWarm(b *testing.B) {
	benchDisaggregated(b, workload.GetTimeline)
}

// BenchmarkTable1_ServerlessCold measures the disaggregated cold path
// (fresh instance per invocation + request-log hop + emulated provisioning
// penalty).
func BenchmarkTable1_ServerlessCold(b *testing.B) {
	opts := benchOptions(b)
	opts.Accounts = 200 // cold runs are 100ms+ per op; keep setup small
	d, err := bench.StartDisaggregatedCold(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	runWorkload(b, d, opts, workload.GetTimeline)
}

// --- Ablations ---

// BenchmarkAblationCache_Off / _On: A1, consistent result caching on a hot
// read set (§4.2.2).
func benchCache(b *testing.B, entries int) {
	opts := benchOptions(b)
	opts.Accounts = 64 // hot set: repeated invocations, the regime caching targets
	opts.CacheEntries = entries
	d, err := bench.StartAggregated(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	runWorkload(b, d, opts, workload.GetTimeline)
}

func BenchmarkAblationCache_Off(b *testing.B) { benchCache(b, 0) }
func BenchmarkAblationCache_On(b *testing.B)  { benchCache(b, 64<<10) }

// BenchmarkAblationReplication_R1/_R2/_R3: A2, replication factor on the
// mutating Follow workload (§4.2.1).
func benchReplication(b *testing.B, replicas int) {
	opts := benchOptions(b)
	opts.Replicas = replicas
	d, err := bench.StartAggregated(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	runWorkload(b, d, opts, workload.Follow)
}

func BenchmarkAblationReplication_R1(b *testing.B) { benchReplication(b, 1) }
func BenchmarkAblationReplication_R2(b *testing.B) { benchReplication(b, 2) }
func BenchmarkAblationReplication_R3(b *testing.B) { benchReplication(b, 3) }

// BenchmarkAblationFuel_Metered/_Unmetered: A3, the interpreter's metering
// overhead on a compute-bound guest loop.
func benchFuel(b *testing.B, metered bool) {
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
		b.Fatal(err)
	}
	const iters = 10_000
	fuel := int64(0)
	if metered {
		fuel = iters*16 + 1024
	}
	inst, err := vm.NewInstance(mod, nil, fuel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if metered {
			inst.Reset(fuel)
		}
		if _, err := inst.Call("spinsum", iters); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFuel_Metered(b *testing.B)   { benchFuel(b, true) }
func BenchmarkAblationFuel_Unmetered(b *testing.B) { benchFuel(b, false) }

// BenchmarkAblationNetDelay_<delay>: A5, injected network delay on Post.
func benchNetDelay(b *testing.B, delay time.Duration, aggregated bool) {
	opts := benchOptions(b)
	opts.Accounts = 500
	opts.NetDelay = delay
	var d *bench.Deployment
	var err error
	if aggregated {
		d, err = bench.StartAggregated(opts)
	} else {
		d, err = bench.StartDisaggregated(opts)
	}
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	runWorkload(b, d, opts, workload.Post)
}

func BenchmarkAblationNetDelay_200us_Aggregated(b *testing.B) {
	benchNetDelay(b, 200*time.Microsecond, true)
}
func BenchmarkAblationNetDelay_200us_Disaggregated(b *testing.B) {
	benchNetDelay(b, 200*time.Microsecond, false)
}

// --- Microbenchmarks of the substrates (engineering baselines) ---

// BenchmarkStorePut measures the LSM engine's raw write path.
func BenchmarkStorePut(b *testing.B) {
	db, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	key := make([]byte, 16)
	value := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			key[j] = byte(i >> (8 * j))
		}
		if err := db.Put(key, value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures the LSM engine's read path over a flushed
// dataset.
func BenchmarkStoreGet(b *testing.B) {
	db, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 10000
	for i := 0; i < n; i++ {
		key := []byte(strconv.Itoa(i))
		if err := db.Put(key, make([]byte, 100)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(strconv.Itoa(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMInvocation measures one full object-method invocation on a
// local runtime (no network): the aggregated fast path.
func BenchmarkVMInvocation(b *testing.B) {
	db, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rt, err := core.NewRuntime(db, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	typ, err := retwis.NewType()
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.RegisterType(typ); err != nil {
		b.Fatal(err)
	}
	if err := rt.CreateObject(retwis.TypeName, 1); err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Invoke(1, "create_account", [][]byte{[]byte("bench")}); err != nil {
		b.Fatal(err)
	}
	args := [][]byte{core.I64Bytes(10)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Invoke(1, "get_timeline", args); err != nil {
			b.Fatal(err)
		}
	}
}
