package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// readReports reads the report lines from a file of run outputs.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"perfbench":`) {
			continue
		}
		var wrap map[string]*report
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r := wrap["perfbench"]; r != nil && r.Envelope != nil {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares one end-to-end metric of two sets of runs by the rule of
// the choosing-metrics guide (section 8): a gain needs nine tenths of the
// pairs won and a median difference beyond the parent's quartile spread; a
// loss beyond the metric's bound is worse; a parent spread wider than the
// bound leaves the metric unresolved unless every change run beats every
// parent run.
func verdict(def metricDef, parent, change []float64) (v string, won, pairs int) {
	better := func(a, b float64) bool { // a is better than b
		if def.better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < len(parent) && i < len(change); i++ {
		pairs++
		if better(change[i], parent[i]) {
			won++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	if pairs > 0 && float64(won) >= 0.9*float64(pairs) && better(cmed, pmed) && math.Abs(cmed-pmed) > pq3-pq1 {
		return "improved", won, pairs
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if (pq3-pq1)/math.Abs(pmed) > def.bound && !allBetter {
		return "unresolved", won, pairs
	}
	worse := (cmed - pmed) / math.Abs(pmed)
	if def.better == "higher" {
		worse = -worse
	}
	if worse > def.bound {
		return "worse", won, pairs
	}
	return "within bound", won, pairs
}

// runsOf returns the runs of one workload and trace mode, in the order
// they started.
func runsOf(rs []*report, wl string, trace bool) []*report {
	var out []*report
	for _, r := range rs {
		if r.Envelope.Workload == wl && r.Envelope.Trace == trace {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Envelope.Started.Before(out[j].Envelope.Started) })
	return out
}

// values returns each run's value of metric, skipping runs without it.
func values(rs []*report, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// constants are the envelope fields two runs must share to be compared.
func (e *envelope) constants() string {
	return fmt.Sprintf("seconds=%d accounts=%d followers=%d zipf=%g msg=%d posts=%d clients=%d replicas=%d "+
		"nproc=%d gomaxprocs=%d go=%s cpu=%q flush=%q",
		e.Seconds, e.Accounts, e.MeanFollowers, e.ZipfS, e.MsgLen, e.PostsPerAccount, e.Clients, e.Replicas,
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.FlushPolicy)
}

// pairingProblem says why two sets of runs cannot be compared pair by pair,
// or returns "". The i-th runs of each side, in start order, are a pair;
// both runs of a pair must start before either run of the next pair, so
// that the two sides alternated (choosing-metrics section 8) and host drift
// between pairs falls on both sides alike.
func pairingProblem(parent, change []*report) string {
	if len(parent) != len(change) {
		return fmt.Sprintf("parent has %d runs, change %d", len(parent), len(change))
	}
	want := parent[0].Envelope.constants()
	for _, r := range append(append([]*report(nil), parent...), change...) {
		if got := r.Envelope.constants(); got != want {
			return fmt.Sprintf("workload constants differ: %s against %s", got, want)
		}
	}
	for i := 0; i+1 < len(parent); i++ {
		p, c := parent[i].Envelope.Started, change[i].Envelope.Started
		np, nc := parent[i+1].Envelope.Started, change[i+1].Envelope.Started
		last, next := p, np
		if c.After(last) {
			last = c
		}
		if nc.Before(next) {
			next = nc
		}
		if !last.Before(next) {
			return fmt.Sprintf("runs did not alternate: a run of pair %d started after a run of pair %d", i+1, i+2)
		}
	}
	return ""
}

// health is one side's output checks, failures and host readings over
// every run of a workload.
type health struct {
	runs, incorrect     int
	failed, setupFailed int64
	calibrationMs       float64 // median
	windowSteal         float64 // median ticks
}

func healthOf(rs []*report) health {
	h := health{runs: len(rs)}
	var cal, steal []float64
	for _, r := range rs {
		if !r.Correct {
			h.incorrect++
		}
		h.failed += r.Failed
		h.setupFailed += r.SetupFailed
		cal = append(cal, r.Envelope.CalibrationMs)
		steal = append(steal, float64(r.Envelope.WindowStealTicks))
	}
	_, h.calibrationMs, _ = quartiles(cal)
	_, h.windowSteal, _ = quartiles(steal)
	return h
}

func (h health) String() string {
	return fmt.Sprintf("%d runs, %d failed the output check, %d failed jobs, %d failed set-up calls; "+
		"medians: calibration %.3g ms, window steal %.0f ticks",
		h.runs, h.incorrect, h.failed, h.setupFailed, h.calibrationMs, h.windowSteal)
}

// refusal says why the change may not claim a gain, or returns "": a gain
// does not count when a change run fails the output check or the change
// fails more operations than the parent.
func refusal(parent, change health) string {
	if change.incorrect > 0 {
		return fmt.Sprintf("%d change runs failed the output check", change.incorrect)
	}
	if p, c := parent.failed+parent.setupFailed, change.failed+change.setupFailed; c > p {
		return fmt.Sprintf("the change failed %d operations, the parent %d", c, p)
	}
	return ""
}

// runCompare prints, for each workload, both sides' health, then for each
// end-to-end metric both sides' medians and quartiles, the pairs the change
// won and the verdict, then the per-layer medians of the traced runs with
// their deltas. A verdict is "unresolved" when the runs cannot be paired,
// and "improved" is withheld when refusal gives a reason.
func runCompare(out io.Writer, parentPath, changePath string) error {
	parent, err := readReports(parentPath)
	if err != nil {
		return err
	}
	change, err := readReports(changePath)
	if err != nil {
		return err
	}
	for _, wl := range workloads {
		fmt.Fprintf(out, "== %s: end to end (parent %s | change %s)\n", wl.name, parentPath, changePath)
		p, c := runsOf(parent, wl.name, false), runsOf(change, wl.name, false)
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(out, "no untraced runs (parent %d, change %d)\n", len(p), len(c))
			continue
		}
		ph := healthOf(append(p, runsOf(parent, wl.name, true)...))
		ch := healthOf(append(c, runsOf(change, wl.name, true)...))
		fmt.Fprintf(out, "parent: %s\nchange: %s\n", ph, ch)
		problem := pairingProblem(p, c)
		if problem != "" {
			fmt.Fprintf(out, "every verdict is unresolved: %s\n", problem)
		}
		noGain := refusal(ph, ch)
		if noGain != "" {
			fmt.Fprintf(out, "no gain can be claimed: %s\n", noGain)
		}
		fmt.Fprintf(out, "%-28s %-8s %12s %25s %12s %25s %6s  %s\n",
			"metric", "unit", "parent med", "parent q1..q3", "change med", "change q1..q3", "won", "verdict")
		for _, def := range endToEnd {
			pv, cv := values(p, def.name), values(c, def.name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(out, "%-28s %-8s  no values (parent %d, change %d)\n", def.name, def.unit, len(pv), len(cv))
				continue
			}
			v, won, pairs := verdict(def, pv, cv)
			if problem != "" || (v == "improved" && noGain != "") {
				v = "unresolved"
			}
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(out, "%-28s %-8s %12.4g %12.4g..%-12.4g %12.4g %12.4g..%-12.4g %3d/%-2d  %s (bound %.0f%%)\n",
				def.name, def.unit, pm, pq1, pq3, cm, cq1, cq3, won, pairs, v, def.bound*100)
		}
		fmt.Fprintf(out, "-- %s: per layer (medians of traced runs; delta against the parent as base)\n", wl.name)
		pt, ct := runsOf(parent, wl.name, true), runsOf(change, wl.name, true)
		for _, def := range perLayer {
			pv, cv := values(pt, def.name), values(ct, def.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			_, pm, _ := quartiles(pv)
			_, cm, _ := quartiles(cv)
			delta := "n/a"
			if pm != 0 {
				delta = fmt.Sprintf("%+.1f%%", (cm-pm)/math.Abs(pm)*100)
			}
			fmt.Fprintf(out, "%-40s %-6s %12.4g -> %-12.4g %8s (base %.4g, %d|%d runs)\n",
				def.name, def.unit, pm, cm, delta, pm, len(pv), len(cv))
		}
	}
	return nil
}
