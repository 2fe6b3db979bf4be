// Command perfbench is LambdaStore's benchmark. One run boots a deployment
// in-process, loads it with a seeded Retwis population, drives one named
// workload from a closed loop for a fixed time, checks the outputs and
// prints every metric by name with its unit. The stores flush and compact
// only between jobs (compactionGate, in gate.go). The last line of standard
// output is the result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// The line before it is the full report, with the run's envelope (code,
// host, calibration, CPU steal). Run it through run.sh from the repository
// root, which builds it first:
//
//	bash perfbench/run.sh --workload mix --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones,
// from a separate run that also traces a sample of jobs. Compare two sets
// of runs, each file holding the standard output of its runs:
//
//	bash perfbench/run.sh -compare parent.txt change.txt
//
// The runs of the two sets must alternate, parent and change, with the
// same settings; otherwise every verdict reads unresolved.
//
// -manifest rewrites BENCHMARK.json and perfbench/predictions.json from
// the metric catalog in catalog.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lambdastore/internal/store"
	"lambdastore/internal/workload"
)

const (
	// accounts is the population, at the paper's scale.
	accounts = 10000
	// postsPerAccount is the seeded Posts per account before measurement.
	// With one, a timeline holds the account's own post and one from each
	// account it follows.
	postsPerAccount = 1
	// warmup is the unmeasured closed-loop time before the window.
	warmup = 1500 * time.Millisecond
)

// clients is the closed loop's client count: one per CPU, so the clients
// keep the box busy without queueing for it.
func clients() int { return runtime.NumCPU() }

func main() {
	var (
		wl      = flag.String("workload", "", "workload name (mix, mix-disagg)")
		seed    = flag.Int64("seed", 1, "seed of the population and the job stream")
		seconds = flag.Int("seconds", runSeconds, "measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		data    = flag.String("data", filepath.Join(buildDir, "data"), "directory for node data")
		compare = flag.Bool("compare", false, "compare two files of run outputs: -compare parent.txt change.txt")
		mani    = flag.Bool("manifest", false, "rewrite BENCHMARK.json and perfbench/predictions.json")
	)
	flag.Parse()
	switch {
	case *mani:
		if err := writeManifest("."); err != nil {
			fail(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two files"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
	default:
		if *trace != 0 && *trace != 1 {
			fail(fmt.Errorf("--trace must be 0 or 1"))
		}
		rep, err := run(runOpts{
			workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
			data: *data, accounts: accounts,
		})
		if err != nil {
			fail(err)
		}
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: output check:", p)
		}
		if rep.Failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d jobs failed; first: %s\n", rep.Failed, rep.Attempted, rep.FirstFailure)
		}
		if err := printReport(os.Stdout, rep); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeManifest(root string) error {
	m, err := manifest()
	if err != nil {
		return err
	}
	p, err := predictions()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), m, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "predictions.json"), p, 0o644)
}

type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	data     string
	accounts int
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run: its envelope, the output check and every metric.
type report struct {
	Envelope     *envelope        `json:"envelope"`
	Correct      bool             `json:"correct"`
	Problems     []string         `json:"problems,omitempty"`
	Attempted    int64            `json:"attempted"`
	Failed       int64            `json:"failed"`
	SetupFailed  int64            `json:"setup_failed"`
	FirstFailure string           `json:"first_failure,omitempty"` // the window's first failed job
	Metrics      map[string]value `json:"metrics"`
}

// printReport prints the report line, then the result line.
func printReport(w io.Writer, rep *report) error {
	line, err := json.Marshal(map[string]*report{"perfbench": rep})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}

// run measures one workload once.
func run(o runOpts) (*report, error) {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	cfg := workload.DefaultConfig(o.accounts)
	cfg.Seed = o.seed
	env, err := newEnvelope(wl.name, cfg, o.trace, o.seconds)
	if err != nil {
		return nil, err
	}
	env.CalibrationMs = calibrate()
	steal0 := stealTicks()

	root, err := filepath.Abs(filepath.Join(o.data, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	d, led, st, err := setUp(root, wl.disagg, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()

	rep := &report{Envelope: env, SetupFailed: st.failed.Load()}
	var windows []*window
	loop := func(win int, dur time.Duration) (*window, error) {
		w, err := closedLoop(d, cfg, wl.mix, win, dur, led, nil)
		if err == nil {
			windows = append(windows, w)
		}
		return w, err
	}
	// Collect set-up's garbage, so that the window does not pay for it,
	// then warm caches and pools before measuring.
	runtime.GC()
	if _, err := loop(winWarmup, warmup); err != nil {
		return nil, err
	}
	before := d.take()
	drain0 := d.gate.drainTime
	stopL0 := sampleL0(d.stores()[0])
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	w, err := loop(winMeasured, time.Duration(o.seconds)*time.Second)
	l0 := stopL0()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	after := d.take()
	rep.Attempted, rep.Failed = w.attempted, w.failed
	if w.firstErr != nil {
		rep.FirstFailure = w.firstErr.Error()
	}
	env.WindowStealTicks = w.stealTicks

	all, reads, writes := w.latsOf(classRead, classWrite), w.latsOf(classRead), w.latsOf(classWrite)
	m := map[string]float64{
		"workload.cpu_ms_per_job": ratio(float64(cpu1-cpu0)/1e6, float64(w.completed())),
		"workload.jobs_s":         float64(w.completed()) / w.elapsed.Seconds(),
		"p50_ms":                  quantile(all, 0.5) / 1e6,
		"workload.p90_ms":         quantile(all, 0.9) / 1e6,
		"workload.p99_ms":         quantile(all, 0.99) / 1e6,
		"read_p50_ms":             quantile(reads, 0.5) / 1e6,
		"write_p50_ms":            quantile(writes, 0.5) / 1e6,
		"workload.read_p99_ms":    quantile(reads, 0.99) / 1e6,
		"workload.write_p99_ms":   quantile(writes, 0.99) / 1e6,
	}
	if o.trace {
		for k, v := range layerMetrics(d, diff(before, after), w, l0) {
			m[k] = v
		}
		m["workload.populate_s"] = st.populate.Seconds()
		m["workload.seed_posts_s"] = st.seedPosts.Seconds()
		m["store.drain_s"] = (d.gate.drainTime - drain0).Seconds()
		m["workload.setup_failed"] = float64(st.failed.Load())
		m["workload.failed_share"] = ratio(float64(w.failed), float64(w.attempted))
		if d.agg != nil {
			m["cluster.boot_s"] = st.boot.Seconds()
		} else {
			m["baseline.boot_s"] = st.boot.Seconds()
		}
		shares, tw, err := tracedWindow(d, cfg, wl.mix, time.Duration(o.seconds)*time.Second/2, led)
		if err != nil {
			return nil, err
		}
		windows = append(windows, tw)
		for k, v := range shares {
			m[k] = v
		}
		m["trace.overhead_share"] = 1 - ratio(float64(tw.completed())/tw.elapsed.Seconds(), float64(w.completed())/w.elapsed.Seconds())
		pm, err := probes(d, cfg, o.seed)
		if err != nil {
			return nil, err
		}
		for k, v := range pm {
			m[k] = v
		}
	} else {
		m["setup_s"] = st.total().Seconds()
		if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
		// Stored bytes at rest: the memtable flushed and the
		// compactions it triggers done, so that the figure does not
		// depend on where the run ended in the flush cycle.
		primary := d.stores()[0]
		if err := primary.Flush(); err != nil {
			return nil, fmt.Errorf("flush primary: %w", err)
		}
		if err := primary.CompactNow(); err != nil {
			return nil, fmt.Errorf("compact primary: %w", err)
		}
		stored, err := dirBytes(d.primaryDir)
		if err != nil {
			return nil, err
		}
		user := st.userBytes.Load()
		for _, w := range windows {
			user += w.userBytes
		}
		m["stored_bytes_per_user_byte"] = ratio(float64(stored), float64(user))
	}

	for _, w := range windows {
		if w.badReply != nil {
			rep.Problems = append(rep.Problems, w.badReply.Error())
		}
	}
	lens, err := d.listLens(cfg, "posts")
	if err != nil {
		return nil, err
	}
	if err := checkLedger(led, lens); err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	rep.Correct = len(rep.Problems) == 0
	env.StealTicks = stealTicks() - steal0

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep.Metrics = make(map[string]value, len(defs))
	for _, def := range defs {
		v := m[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", def.name, v)
		}
		rep.Metrics[def.name] = value{v, def.unit}
	}
	return rep, nil
}

// sampleL0 polls the number of level-0 tables of db until the returned
// function is called, which returns the largest count seen.
func sampleL0(db *store.DB) func() int {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var most int
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			most = max(most, db.TableCount()[0])
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return most
	}
}
