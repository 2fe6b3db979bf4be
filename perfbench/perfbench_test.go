package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/workload"
)

// TestEveryMetricPrinted runs each workload at a tiny scale, untraced and
// traced, and checks the result line: exactly the four keys, a passing
// output check, and every metric BENCHMARK.json names with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("boots deployments")
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(runOpts{workload: wl.name, seed: 7, seconds: 2, trace: trace, data: t.TempDir(), accounts: 200})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			var out bytes.Buffer
			if err := printReport(&out, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Fatalf("%s trace=%v: result keys %v", wl.name, trace, res)
			}
			if string(res["correct"]) != "true" {
				t.Errorf("%s trace=%v: output check failed: %v", wl.name, trace, rep.Problems)
			}
			var metrics map[string]value
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := bm.EndToEnd
			if trace {
				want = bm.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.name, trace, m.Name, got, m.Unit)
				}
			}
			if rep.Attempted <= rep.Failed {
				t.Errorf("%s trace=%v: no jobs completed", wl.name, trace)
			}
		}
	}
}

func encodeTimeline(msgs ...string) []byte {
	var b []byte
	for i, m := range msgs {
		b = binary.LittleEndian.AppendUint64(b, uint64(16+len(m)))
		b = binary.LittleEndian.AppendUint64(b, uint64(i+1))
		b = binary.LittleEndian.AppendUint64(b, uint64(1000+i))
		b = append(b, m...)
	}
	return b
}

func TestTimelineCheck(t *testing.T) {
	msg := strings.Repeat("m", 100)
	good := encodeTimeline(msg, msg, msg)
	if err := checkTimeline(good, 100); err != nil {
		t.Fatalf("good timeline: %v", err)
	}
	if err := checkTimeline(nil, 100); err != nil {
		t.Fatalf("empty timeline: %v", err)
	}
	many := make([]string, timelineLimit+1)
	for i := range many {
		many[i] = msg
	}
	for name, bad := range map[string][]byte{
		"truncated":     good[:len(good)-1],
		"too many":      encodeTimeline(many...),
		"short message": encodeTimeline(msg, msg[:99]),
	} {
		if checkTimeline(bad, 100) == nil {
			t.Errorf("%s timeline passed the check", name)
		}
	}
}

// TestRecorderRejectsTruncatedTimeline feeds a corrupted reply through the
// recorder that sits under every measured job.
func TestRecorderRejectsTruncatedTimeline(t *testing.T) {
	cfg := workload.DefaultConfig(10)
	good := encodeTimeline(strings.Repeat("m", cfg.MsgLen))
	reply := good
	rec := &recorder{
		invoke: func(uint64, string, [][]byte) ([]byte, error) { return reply, nil },
		led:    newLedger(cfg),
		msgLen: cfg.MsgLen,
	}
	op, err := workload.OpStream(cfg, workload.GetTimeline, rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := op(); err != nil || rec.badReply != nil {
		t.Fatalf("good reply: err %v, check %v", err, rec.badReply)
	}
	reply = good[:len(good)-3]
	if err := op(); err != nil || rec.badReply == nil {
		t.Fatalf("truncated reply passed: err %v", err)
	}
}

// TestGateDrainsBetweenJobs checks that the job that takes a store's WAL
// past the gate's limit flushes the store, and that the next job waits for
// the drain to end.
func TestGateDrainsBetweenJobs(t *testing.T) {
	reg := telemetry.NewRegistry()
	db, err := store.Open(t.TempDir(), &store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g, err := newCompactionGate([]*store.DB{db}, []*telemetry.Registry{reg})
	if err != nil {
		t.Fatal(err)
	}
	g.limit = 4 << 10
	val := bytes.Repeat([]byte("v"), 100)
	put := func(i int) {
		g.enter()
		defer g.exit()
		if err := db.Put([]byte{byte(i >> 8), byte(i)}, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(i)
	}
	if g.drains != 0 || db.TableCount()[0] != 0 {
		t.Fatalf("drained below the limit: %d drains, %d L0 tables", g.drains, db.TableCount()[0])
	}
	for i := 10; g.drains == 0 && i < 1000; i++ {
		put(i)
	}
	if g.drains != 1 || g.err != nil || db.TableCount()[0] != 1 {
		t.Fatalf("past the limit: %d drains (err %v), %d L0 tables", g.drains, g.err, db.TableCount()[0])
	}

	// A job that arrives during a drain starts after it.
	g.mu.Lock()
	entered := make(chan struct{})
	go func() {
		g.enter()
		close(entered)
		g.exit()
	}()
	select {
	case <-entered:
		t.Fatal("a job entered during a drain")
	case <-time.After(50 * time.Millisecond):
	}
	g.mu.Unlock()
	<-entered
}

func TestLedgerCheck(t *testing.T) {
	led := newLedger(workload.DefaultConfig(2))
	led.attempted[0].Store(4)
	led.acked[0].Store(3)
	for name, c := range map[string]struct {
		lens [][]uint64
		ok   bool
	}{
		"all acked stored":         {[][]uint64{{3, 0}, {3, 0}, {3, 0}}, true},
		"unacked attempt stored":   {[][]uint64{{4, 0}, {4, 0}, {4, 0}}, true},
		"acked post dropped":       {[][]uint64{{2, 0}, {2, 0}, {2, 0}}, false},
		"more than attempted":      {[][]uint64{{5, 0}, {5, 0}, {5, 0}}, false},
		"backup behind primary":    {[][]uint64{{3, 0}, {3, 0}, {2, 0}}, false},
		"post on a silent account": {[][]uint64{{3, 1}, {3, 1}, {3, 1}}, false},
	} {
		if err := checkLedger(led, c.lens); (err == nil) != c.ok {
			t.Errorf("%s: check returned %v", name, err)
		}
	}
}

// TestManifestUpToDate keeps BENCHMARK.json and predictions.json equal to
// the catalog; run the benchmark with -manifest to regenerate them.
func TestManifestUpToDate(t *testing.T) {
	for file, gen := range map[string]func() ([]byte, error){
		filepath.Join("..", "BENCHMARK.json"): manifest,
		"predictions.json":                    predictions,
	} {
		want, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: run the benchmark with -manifest from the repository root", file)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	jobs := metricDef{name: "jobs_s", better: "higher", bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{shift(20), "improved"},
		{shift(0), "within bound"},
		{shift(-5), "within bound"},
		{shift(-20), "worse"},
	} {
		if got, _, _ := verdict(jobs, parent, c.change); got != c.want {
			t.Errorf("change %v: verdict %s, want %s", c.change[0], got, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got, _, _ := verdict(jobs, noisy, shift(-5)); got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
}

// reportAt is a run of one workload that started at minute m.
func reportAt(m int) *report {
	return &report{
		Correct:  true,
		Envelope: &envelope{Workload: "mix", Seconds: runSeconds, Accounts: accounts, Started: time.Unix(int64(60*m), 0)},
	}
}

func TestPairingNeedsAlternation(t *testing.T) {
	at := func(minutes ...int) []*report {
		var rs []*report
		for _, m := range minutes {
			rs = append(rs, reportAt(m))
		}
		return rs
	}
	if p := pairingProblem(at(0, 3, 4), at(1, 2, 5)); p != "" {
		t.Errorf("alternating runs (ABBA): %s", p)
	}
	if pairingProblem(at(0, 1, 2), at(3, 4, 5)) == "" {
		t.Error("parent runs all before change runs were paired")
	}
	if pairingProblem(at(0, 2), at(1, 3, 5)) == "" {
		t.Error("sets of different sizes were paired")
	}
	other := at(1, 3)
	other[1].Envelope.Accounts = 200
	if pairingProblem(at(0, 2), other) == "" {
		t.Error("runs at different populations were paired")
	}
}

func TestRefusalOnFailures(t *testing.T) {
	clean := health{runs: 10}
	if r := refusal(clean, clean); r != "" {
		t.Errorf("clean sides refused: %s", r)
	}
	if refusal(clean, health{runs: 10, incorrect: 1}) == "" {
		t.Error("a change run that failed the output check was not refused")
	}
	if refusal(health{runs: 10, failed: 2}, health{runs: 10, failed: 1, setupFailed: 2}) == "" {
		t.Error("a change that failed more operations was not refused")
	}
	if r := refusal(health{runs: 10, failed: 3}, health{runs: 10, failed: 1}); r != "" {
		t.Errorf("a change that failed fewer operations was refused: %s", r)
	}
}

// TestCompareWithholdsGain checks the whole -compare path: a change that
// reads faster but failed its output check is not called improved, and
// the same figures from alternating clean runs are.
func TestCompareWithholdsGain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, correct bool, first int, p50 float64) string {
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			r := reportAt(2*i + first)
			r.Correct = correct
			r.Metrics = map[string]value{"p50_ms": {p50 + float64(i%3)*0.001, "ms"}}
			if err := printReport(&b, r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.txt", true, 0, 0.2)
	verdictOf := func(change string) string {
		var out bytes.Buffer
		if err := runCompare(&out, parent, change); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "p50_ms ") {
				return line
			}
		}
		t.Fatalf("no p50_ms line in:\n%s", out.String())
		return ""
	}
	if line := verdictOf(write("good.txt", true, 1, 0.1)); !strings.Contains(line, "improved") {
		t.Errorf("clean faster change: %s", line)
	}
	if line := verdictOf(write("bad.txt", false, 1, 0.1)); !strings.Contains(line, "unresolved") {
		t.Errorf("incorrect faster change: %s", line)
	}
}
