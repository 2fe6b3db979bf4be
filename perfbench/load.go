package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lambdastore/internal/retwis"
	"lambdastore/internal/workload"
)

// timelineLimit is the get_timeline argument workload.OpStream sends.
const timelineLimit = 10

// share is one operation kind of a workload's mix, in percent.
type share struct {
	op      string // workload.Post, workload.GetTimeline or workload.Follow
	percent int
}

// ledger counts each account's Posts, set-up and measured alike, for the
// end-of-run storage check.
type ledger struct {
	cfg              workload.Config
	attempted, acked []atomic.Int64
}

func newLedger(cfg workload.Config) *ledger {
	return &ledger{
		cfg:       cfg,
		attempted: make([]atomic.Int64, cfg.Accounts),
		acked:     make([]atomic.Int64, cfg.Accounts),
	}
}

func (l *ledger) index(object uint64) int { return int(object - l.cfg.FirstID) }

func argBytes(args [][]byte) int64 {
	var n int64
	for _, a := range args {
		n += int64(len(a))
	}
	return n
}

// setupStats is one set-up's stage times, its acknowledged argument bytes
// and its failed calls.
type setupStats struct {
	boot, populate, seedPosts time.Duration
	userBytes                 atomic.Int64
	failed                    atomic.Int64
}

func (s *setupStats) total() time.Duration { return s.boot + s.populate + s.seedPosts }

// try runs one set-up call through the deployment's gate. A failure is
// counted, not retried, and set-up goes on; a failed account or edge shows
// later as failed jobs.
func (s *setupStats) try(d *deployment, object uint64, method string, args [][]byte) bool {
	d.gate.enter()
	defer d.gate.exit()
	if _, err := d.setup.Invoke(object, method, args); err != nil {
		s.failed.Add(1)
		return false
	}
	s.userBytes.Add(argBytes(args))
	return true
}

// setupWorkers is the concurrency of the seeded Posts. Set-up is timed as a
// whole, not per call.
const setupWorkers = 8

// setUp boots one deployment under root, populates it and runs the seeded
// Posts, so that reads find non-empty timelines. The gate leaves no flush
// or compaction of set-up's writes to run in the measured window.
func setUp(root string, disagg bool, cfg workload.Config) (*deployment, *ledger, *setupStats, error) {
	st := &setupStats{}
	t0 := time.Now()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp(root, "deploy-*")
	if err != nil {
		return nil, nil, nil, err
	}
	var d *deployment
	if disagg {
		d, err = startDisaggregated(dir)
	} else {
		d, err = startAggregated(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	st.boot = time.Since(t0)

	t1 := time.Now()
	create := func(id uint64) error {
		d.gate.enter()
		defer d.gate.exit()
		if err := d.create(id); err != nil {
			st.failed.Add(1)
		}
		return nil
	}
	// workload.Populate stops at its first error; set-up counts it instead.
	tolerant := workload.InvokerFunc(func(object uint64, method string, args [][]byte) ([]byte, error) {
		st.try(d, object, method, args)
		return nil, nil
	})
	if err := workload.Populate(cfg, create, tolerant); err != nil {
		d.close()
		return nil, nil, nil, fmt.Errorf("populate: %w", err)
	}
	st.populate = time.Since(t1)

	t2 := time.Now()
	led := newLedger(cfg)
	seedPosts(d, cfg, led, st)
	st.seedPosts = time.Since(t2)
	if d.gate.err != nil {
		d.close()
		return nil, nil, nil, d.gate.err
	}
	return d, led, st, nil
}

// seedPosts has every account post postsPerAccount times, round robin over
// the accounts.
func seedPosts(d *deployment, cfg workload.Config, led *ledger, st *setupStats) {
	total := cfg.Accounts * postsPerAccount
	msg := postMessage(cfg)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < setupWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < total; j = int(next.Add(1) - 1) {
				id := cfg.AccountID(j)
				i := led.index(id)
				led.attempted[i].Add(1)
				if st.try(d, id, "create_post", [][]byte{msg}) {
					led.acked[i].Add(1)
				}
			}
		}()
	}
	wg.Wait()
}

// postMessage is the message workload.OpStream posts.
func postMessage(cfg workload.Config) []byte {
	msg := make([]byte, cfg.MsgLen)
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	return msg
}

// Latency classes of a job.
const (
	classRead = iota
	classWrite
	numClasses
)

// failedLatency is the latency a failed job is recorded with, so that it
// misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// recorder is one closed-loop client's view of its jobs: it sits between
// workload.OpStream and the deployment, passes each job through the gate,
// times it, keeps the Post ledger and checks every reply.
type recorder struct {
	invoke func(object uint64, method string, args [][]byte) ([]byte, error)
	gate   *compactionGate // nil: no gate
	led    *ledger
	msgLen int

	lats      [numClasses][]time.Duration
	attempted int64
	failed    int64
	userBytes int64
	badReply  error // first reply that failed the output check
	firstErr  error // first job that failed
}

func (r *recorder) Invoke(object uint64, method string, args [][]byte) ([]byte, error) {
	class := classWrite
	if method == "get_timeline" {
		class = classRead
	}
	post := method == "create_post"
	if post {
		r.led.attempted[r.led.index(object)].Add(1)
	}
	r.attempted++
	if r.gate != nil {
		// A job waits out a drain before its clock starts.
		r.gate.enter()
		defer r.gate.exit()
	}
	t0 := time.Now()
	out, err := r.invoke(object, method, args)
	lat := time.Since(t0)
	if err != nil {
		lat = failedLatency
	}
	r.lats[class] = append(r.lats[class], lat)
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s on account %d: %w", method, object, err)
		}
		return nil, err
	}
	r.userBytes += argBytes(args)
	if post {
		r.led.acked[r.led.index(object)].Add(1)
	}
	if class == classRead && r.badReply == nil {
		if cerr := checkTimeline(out, r.msgLen); cerr != nil {
			r.badReply = fmt.Errorf("get_timeline on account %d: %w", object, cerr)
		}
	}
	return out, nil
}

// checkTimeline is the output check on one GetTimeline reply: it must decode
// into at most timelineLimit entries, each carrying a full-length message.
func checkTimeline(reply []byte, msgLen int) error {
	posts, err := retwis.DecodeTimeline(reply)
	if err != nil {
		return err
	}
	if len(posts) > timelineLimit {
		return fmt.Errorf("%d entries, limit %d", len(posts), timelineLimit)
	}
	for i, p := range posts {
		if len(p.Msg) != msgLen {
			return fmt.Errorf("entry %d: message of %d bytes, want %d", i, len(p.Msg), msgLen)
		}
	}
	return nil
}

// window is what the closed loop measured over one run of the loop.
type window struct {
	elapsed    time.Duration
	stealTicks uint64 // host-wide CPU steal over the window (envelope.WindowStealTicks)
	lats       [numClasses][]time.Duration
	attempted  int64
	failed     int64
	userBytes  int64
	badReply   error
	firstErr   error
}

// completed is the number of jobs that did not fail.
func (w *window) completed() int64 { return w.attempted - w.failed }

// latsOf returns the latencies of every job of the given classes.
func (w *window) latsOf(classes ...int) []time.Duration {
	var out []time.Duration
	for _, c := range classes {
		out = append(out, w.lats[c]...)
	}
	return out
}

// The closed-loop windows of one run. Each draws its inputs from its own
// seed, derived from the run seed, so that the measured window does not
// replay the accounts the warm-up just read.
const (
	winWarmup = iota
	winMeasured
	winTraced
)

// closedLoop runs clients() clients, each sending its next job when the
// previous one returned, for dur. Job kinds are drawn from mix by a
// per-client generator; each kind's accounts and arguments come from its
// own workload.OpStream. Both are seeded from cfg.Seed and win, the index
// of the window in the run. No job is retried. hook, if set, replaces the
// invocation of every sampleEvery-th job of each client (the traced run's
// sample).
func closedLoop(d *deployment, cfg workload.Config, mix []share, win int, dur time.Duration, led *ledger,
	hook func(object uint64, method string, args [][]byte) ([]byte, error)) (*window, error) {
	seed := cfg.Seed + int64(win)*1_000_000_007
	recs := make([]*recorder, clients())
	ops := make([][]func() error, len(recs))
	for c := range recs {
		rec := &recorder{invoke: d.invoke, gate: d.gate, led: led, msgLen: cfg.MsgLen}
		if hook != nil {
			n := 0
			rec.invoke = func(object uint64, method string, args [][]byte) ([]byte, error) {
				n++
				if n%sampleEvery == 0 {
					return hook(object, method, args)
				}
				return d.invoke(object, method, args)
			}
		}
		recs[c] = rec
		for k, s := range mix {
			kcfg := cfg
			kcfg.Seed = seed + int64(k+1)*1_000_003
			op, err := workload.OpStream(kcfg, s.op, rec, c)
			if err != nil {
				return nil, err
			}
			ops[c] = append(ops[c], op)
		}
	}
	steal0 := stealTicks()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(c)))
			for time.Now().Before(deadline) {
				p := rng.Intn(100)
				for k, s := range mix {
					if p < s.percent {
						ops[c][k]() //nolint:errcheck // the recorder counts failures
						break
					}
					p -= s.percent
				}
			}
		}()
	}
	wg.Wait()
	if d.gate.err != nil {
		return nil, d.gate.err
	}
	w := &window{elapsed: time.Since(start), stealTicks: stealTicks() - steal0}
	for _, r := range recs {
		for c := range w.lats {
			w.lats[c] = append(w.lats[c], r.lats[c]...)
		}
		w.attempted += r.attempted
		w.failed += r.failed
		w.userBytes += r.userBytes
		if w.badReply == nil {
			w.badReply = r.badReply
		}
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
	}
	return w, nil
}

// checkLedger is the end-of-run storage check. lens[r][i] is replica r's
// posts-list length for account i, replica 0 the primary. The primary must
// hold every acknowledged Post and no more than were attempted;
// every backup must equal the primary.
func checkLedger(led *ledger, lens [][]uint64) error {
	if len(lens) == 0 {
		return fmt.Errorf("no replicas read")
	}
	for i := range led.acked {
		lo, hi := led.acked[i].Load(), led.attempted[i].Load()
		got := int64(lens[0][i])
		if got < lo || got > hi {
			return fmt.Errorf("account %d: primary holds %d posts, want %d..%d",
				led.cfg.AccountID(i), got, lo, hi)
		}
		for r := 1; r < len(lens); r++ {
			if lens[r][i] != lens[0][i] {
				return fmt.Errorf("account %d: backup %d holds %d posts, primary %d",
					led.cfg.AccountID(i), r, lens[r][i], lens[0][i])
			}
		}
	}
	return nil
}
