package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lambdastore/internal/baseline"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/wire"
	"lambdastore/internal/workload"
)

// traceStages are the critical-path stages telemetry.AssembleTrace charges
// a trace's time to, in report order.
var traceStages = []string{"rpc-wire", "dispatch", "vm-exec", "repl-ship", "cache-hit", "lock-wait", "wal-fsync", "commit"}

// sampleEvery is how often a client of the traced run sends its job through
// the traced entry point and assembles the trace.
const sampleEvery = 50

// stageSplit sums the critical-path time of sampled traces by stage. The
// benchmark times each sampled call itself; the part of that time no node
// span covers is the client's own hop, charged to rpc-wire.
type stageSplit struct {
	mu      sync.Mutex
	sampled int
	total   time.Duration
	stages  map[string]time.Duration
}

// tracedInvoke returns the hook that sends one job of the aggregated
// deployment through cluster.Client.InvokeTraced and assembles its trace
// from every node's spans.
func (s *stageSplit) tracedInvoke(a *aggregated) func(object uint64, method string, args [][]byte) ([]byte, error) {
	return func(object uint64, method string, args [][]byte) ([]byte, error) {
		t0 := time.Now()
		out, trace, err := a.client.InvokeTraced(core.ObjectID(object), method, args)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		var spans []telemetry.Span
		for _, n := range a.nodes {
			spans = append(spans, n.Tracer().TraceSpans(trace)...)
		}
		at := telemetry.AssembleTrace(trace, spans)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.sampled++
		s.total += wall
		for stage, d := range at.Stages {
			s.stages[stage] += d
		}
		if hop := wall - at.Total; hop > 0 {
			s.stages["rpc-wire"] += hop
		}
		return out, nil
	}
}

// tracedWindow runs the closed loop again with the nodes' tracers on and a
// sample of jobs traced end to end. It returns the stage shares and the
// window, whose throughput against the untraced one is the tracing
// overhead.
func tracedWindow(d *deployment, cfg workload.Config, mix []share, dur time.Duration, led *ledger) (map[string]float64, *window, error) {
	split := &stageSplit{stages: make(map[string]time.Duration)}
	var hook func(uint64, string, [][]byte) ([]byte, error)
	if d.agg != nil {
		for _, n := range d.agg.nodes {
			n.Tracer().SetEnabled(true)
		}
		defer func() {
			for _, n := range d.agg.nodes {
				n.Tracer().SetEnabled(false)
			}
		}()
		hook = split.tracedInvoke(d.agg)
	}
	w, err := closedLoop(d, cfg, mix, winTraced, dur, led, hook)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{"trace.sampled": float64(split.sampled)}
	for _, stage := range traceStages {
		m["trace."+stage+"_share"] = ratio(float64(split.stages[stage]), float64(split.total))
	}
	return m, w, nil
}

// probeRounds is the number of calls each probe times.
const probeRounds = 400

// probes times nested calls into the layers on an idle deployment, each
// inside the previous one's scope: the client's job, the server-side call
// it makes, and the store read under that. The difference between the
// medians of adjacent probes is the outer layer's self time.
func probes(d *deployment, cfg workload.Config, seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	arg := [][]byte{core.I64Bytes(timelineLimit)}
	var outer, middle, inner, ping []time.Duration
	timed := func(dst *[]time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		*dst = append(*dst, time.Since(t0))
		return err
	}
	var primaryDB *store.DB
	var client, server func(id core.ObjectID) error
	var pinger func() error
	var check func(id core.ObjectID) error // verifies the server probe's last reply
	if a := d.agg; a != nil {
		primary := a.nodes[0]
		primaryDB = primary.DB()
		pool := rpc.NewPool(rpcOptions())
		defer pool.Close()
		client = func(id core.ObjectID) error {
			_, err := a.client.Invoke(id, "get_timeline", arg)
			return err
		}
		server = func(id core.ObjectID) error {
			_, err := primary.Runtime().Invoke(id, "get_timeline", arg)
			return err
		}
		pinger = func() error {
			_, err := pool.Call(primary.Addr(), cluster.MethodPing, nil)
			return err
		}
	} else {
		primary := d.dis.storage[0]
		primaryDB = primary.DB()
		client = func(id core.ObjectID) error {
			_, err := d.invoke(uint64(id), "get_timeline", arg)
			return err
		}
		var reply []byte
		server = func(id core.ObjectID) (err error) {
			reply, err = d.dis.pool.Call(primary.Addr(), baseline.MethodListLen, listLenReq(id, "timeline"))
			return err
		}
		check = func(id core.ObjectID) error {
			want, err := primary.DB().Get(core.ListLenKey(id, "timeline"))
			if err != nil && !errors.Is(err, store.ErrNotFound) {
				return err
			}
			if core.DecodeU64(reply) != core.DecodeU64(want) {
				return fmt.Errorf("listlen of %d: got %d, store holds %d", id, core.DecodeU64(reply), core.DecodeU64(want))
			}
			return nil
		}
	}
	for i := 0; i < probeRounds; i++ {
		id := core.ObjectID(cfg.AccountID(rng.Intn(cfg.Accounts)))
		if err := timed(&outer, func() error { return client(id) }); err != nil {
			return nil, fmt.Errorf("client probe: %w", err)
		}
		if err := timed(&middle, func() error { return server(id) }); err != nil {
			return nil, fmt.Errorf("server probe: %w", err)
		}
		if check != nil {
			if err := check(id); err != nil {
				return nil, fmt.Errorf("server probe: %w", err)
			}
		}
		if err := timed(&inner, func() error {
			_, err := primaryDB.Get(core.ListLenKey(id, "timeline"))
			if errors.Is(err, store.ErrNotFound) {
				return nil
			}
			return err
		}); err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
		if pinger != nil {
			if err := timed(&ping, pinger); err != nil {
				return nil, fmt.Errorf("ping probe: %w", err)
			}
		}
	}
	o, mid, in := medianUs(outer), medianUs(middle), medianUs(inner)
	m := map[string]float64{
		"probe.client_self_us":   o - mid,
		"probe.server_self_us":   mid - in,
		"probe.store_get_us":     in,
		"store.probe_get_p50_us": in,
	}
	if d.agg != nil {
		m["core.probe_read_p50_us"] = mid
		m["rpc.probe_ping_p50_us"] = medianUs(ping)
	} else {
		m["baseline.probe_storage_get_p50_us"] = mid
	}
	return m, nil
}

// listLenReq encodes a bstore.listlen request: object, field, then the
// empty key, value and index the call does not use.
func listLenReq(id core.ObjectID, field string) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(id))
	b = wire.AppendString(b, field)
	b = wire.AppendBytes(b, nil)
	b = wire.AppendBytes(b, nil)
	return wire.AppendUvarint(b, 0)
}

func medianUs(ds []time.Duration) float64 {
	return quantile(ds, 0.5) / float64(time.Microsecond)
}

// quantile is the q-quantile of ds by linear interpolation between the
// nearest ranks, in nanoseconds. It sorts ds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(pos)
	if lo+1 >= len(ds) {
		return float64(ds[len(ds)-1])
	}
	frac := pos - float64(lo)
	return float64(ds[lo])*(1-frac) + float64(ds[lo+1])*frac
}
