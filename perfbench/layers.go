package main

import (
	"time"

	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
	"lambdastore/internal/vm"
)

// nodeSnap is one node's exported counters and histograms at one instant:
// its registry plus the values its layers expose outside the registry.
type nodeSnap struct {
	c map[string]uint64
	h map[string]telemetry.HistData
}

// snap is a whole deployment at one instant. For the aggregated deployment
// nodes are the cluster nodes, primary first; for the disaggregated one the
// storage nodes, primary first, then the compute node.
type snap struct {
	nodes []nodeSnap
	extra map[string]uint64
}

func registrySnap(reg *telemetry.Registry) nodeSnap {
	s := nodeSnap{c: make(map[string]uint64), h: make(map[string]telemetry.HistData)}
	for _, name := range reg.CounterNames() {
		s.c[name] = reg.Counter(name).Value()
	}
	for _, name := range reg.HistogramNames() {
		s.h[name] = reg.Histogram(name).Data()
	}
	return s
}

func addDBStats(s nodeSnap, db *store.DB) {
	s.c["x.state_cache_hits"], s.c["x.state_cache_misses"] = db.StateCacheStats()
	s.c["x.block_cache_hits"], s.c["x.block_cache_misses"] = db.BlockCacheStats()
}

// take reads every layer's counters from outside the program.
func (d *deployment) take() *snap {
	out := &snap{extra: map[string]uint64{"vm.interp_fallbacks": vm.CompilerStats().InterpFallbacks}}
	if a := d.agg; a != nil {
		for _, n := range a.nodes {
			s := registrySnap(n.Metrics())
			rt := n.Runtime()
			s.c["x.invocations"], s.c["x.commits"] = rt.Stats()
			s.c["x.pool_warm"], s.c["x.pool_cold"] = rt.PoolStats()
			if c := rt.Cache(); c != nil {
				st := c.Stats()
				s.c["x.cache_hits"], s.c["x.cache_misses"] = st.Hits, st.Misses
				s.c["x.cache_bypass"], s.c["x.cache_invalidations"] = st.Bypass, st.Invalidations
				s.c["x.cache_evictions"] = st.Evictions
			}
			addDBStats(s, n.DB())
			out.nodes = append(out.nodes, s)
		}
		out.extra["client.overload_retries"] = a.client.OverloadRetries()
		return out
	}
	dis := d.dis
	for i, n := range dis.storage {
		s := registrySnap(dis.storeRegs[i])
		addDBStats(s, n.DB())
		out.nodes = append(out.nodes, s)
	}
	out.nodes = append(out.nodes, registrySnap(dis.computeReg))
	out.extra["compute.invocations"] = dis.compute.Invocations()
	out.extra["lb.dispatched"] = dis.lb.Dispatched()
	return out
}

// delta is the work done between two snapshots.
type delta struct {
	nodes []nodeSnap
	extra map[string]uint64
}

func diff(before, after *snap) *delta {
	d := &delta{extra: make(map[string]uint64)}
	for i, a := range after.nodes {
		b := before.nodes[i]
		n := nodeSnap{c: make(map[string]uint64), h: make(map[string]telemetry.HistData)}
		for k, v := range a.c {
			n.c[k] = v - b.c[k]
		}
		for k, v := range a.h {
			n.h[k] = v.Sub(b.h[k])
		}
		d.nodes = append(d.nodes, n)
	}
	for k, v := range after.extra {
		d.extra[k] = v - before.extra[k]
	}
	// The compiler's fallback count is reported as a total, not a delta.
	d.extra["vm.interp_fallbacks"] = after.extra["vm.interp_fallbacks"]
	return d
}

// sum adds a counter over the nodes in [from, to).
func (d *delta) sum(name string, from, to int) float64 {
	var t uint64
	for _, n := range d.nodes[from:to] {
		t += n.c[name]
	}
	return float64(t)
}

// hist merges a histogram over the nodes in [from, to).
func (d *delta) hist(name string, from, to int) telemetry.HistData {
	var h telemetry.HistData
	for _, n := range d.nodes[from:to] {
		h = h.Merge(n.h[name])
	}
	return h
}

func us(h telemetry.HistData, q float64) float64 {
	return float64(h.Quantile(q)) / float64(time.Microsecond)
}

// mean is the mean of a count-valued histogram (one member per µs).
func mean(h telemetry.HistData) float64 {
	return ratio(float64(h.SumUs), float64(h.Count))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of one measured window from
// the counters the layers did work on during it. l0Max is the deepest L0
// the primary's store reached in the window.
func layerMetrics(dep *deployment, d *delta, w *window, l0Max int) map[string]float64 {
	m := make(map[string]float64)
	jobs := float64(w.completed())
	reads := float64(len(w.lats[classRead]))
	writes := float64(len(w.lats[classWrite]))
	user := float64(w.userBytes)
	n := len(d.nodes)

	// Layers whose counters live on the storage nodes of either deployment.
	storeNodes := n
	if dep.dis != nil {
		storeNodes = n - 1 // the last node is the compute node
	}
	m["store.writes_per_job"] = ratio(d.sum("store.writes", 0, storeNodes), jobs)
	m["store.wal_bytes_per_user_byte"] = ratio(d.sum("store.wal_bytes", 0, 1), user)
	m["store.wal_group_size_mean"] = mean(d.hist("wal.group_size", 0, storeNodes))
	m["store.wal_syncs_per_job"] = ratio(d.sum("store.wal_syncs", 0, storeNodes), jobs)
	m["store.flushes"] = d.sum("store.flushes", 0, storeNodes)
	m["store.compactions"] = d.sum("store.compactions", 0, storeNodes)
	m["store.compact_s"] = float64(d.hist("store.compact", 0, storeNodes).SumUs) / 1e6
	m["store.l0_tables_max"] = float64(l0Max)
	m["store.state_cache_hit_ratio"] = ratio(d.sum("x.state_cache_hits", 0, storeNodes),
		d.sum("x.state_cache_hits", 0, storeNodes)+d.sum("x.state_cache_misses", 0, storeNodes))
	m["store.block_cache_hit_ratio"] = ratio(d.sum("x.block_cache_hits", 0, storeNodes),
		d.sum("x.block_cache_hits", 0, storeNodes)+d.sum("x.block_cache_misses", 0, storeNodes))
	m["vm.interp_fallbacks"] = float64(d.extra["vm.interp_fallbacks"])

	if dep.dis != nil {
		// RPC counters are the compute node's: every job and every storage
		// access of the baseline passes through it.
		c := n - 1
		calls := d.sum("rpc.client.calls", c, n)
		served := d.sum("rpc.server.requests", c, n)
		lb := float64(d.extra["lb.dispatched"])
		m["rpc.calls_per_job"] = ratio(calls+served, jobs)
		m["rpc.bytes_per_job"] = ratio(d.sum("rpc.client.tx_bytes", c, n)+d.sum("rpc.client.rx_bytes", c, n)+
			d.sum("rpc.server.tx_bytes", c, n)+d.sum("rpc.server.rx_bytes", c, n), jobs)
		handle := d.hist("rpc.server.handle", c, n)
		m["rpc.server_handle_p50_us"] = us(handle, 0.5)
		m["rpc.server_handle_p99_us"] = us(handle, 0.99)
		m["rpc.coalesced_share"] = ratio(d.sum("rpc.frames_coalesced", c, n), calls+served)
		m["baseline.storage_rpcs_per_job"] = ratio(calls-lb, jobs)
		m["baseline.compute_invocations_per_job"] = ratio(float64(d.extra["compute.invocations"]), jobs)
		m["baseline.lb_dispatches_per_job"] = ratio(lb, jobs)
		call := d.hist("rpc.client.call", c, n)
		m["baseline.storage_rpc_p50_us"] = us(call, 0.5)
		m["baseline.storage_rpc_p99_us"] = us(call, 0.99)
		return m
	}

	m["cluster.backup_read_share"] = ratio(d.sum("reads.backup_served", 0, n), reads)
	m["cluster.bounced_per_read"] = ratio(d.sum("reads.primary_bounced", 0, n), reads)
	m["cluster.retries_per_job"] = ratio(float64(d.extra["client.overload_retries"]), jobs)

	served := d.sum("rpc.server.requests", 0, n)
	calls := d.sum("rpc.client.calls", 0, n)
	m["rpc.calls_per_job"] = ratio(served, jobs)
	m["rpc.bytes_per_job"] = ratio(d.sum("rpc.server.rx_bytes", 0, n)+d.sum("rpc.server.tx_bytes", 0, n), jobs)
	handle := d.hist("rpc.server.handle", 0, n)
	m["rpc.server_handle_p50_us"] = us(handle, 0.5)
	m["rpc.server_handle_p99_us"] = us(handle, 0.99)
	m["rpc.coalesced_share"] = ratio(d.sum("rpc.frames_coalesced", 0, n), served+calls)

	m["admission.queued_share"] = ratio(d.sum("admission.queued", 0, n), jobs)

	inv := d.hist("core.invoke", 0, n)
	m["core.invoke_p50_us"] = us(inv, 0.5)
	m["core.invoke_p99_us"] = us(inv, 0.99)
	m["core.invokes_per_job"] = ratio(d.sum("x.invocations", 0, n), jobs)
	m["core.commits_per_job"] = ratio(d.sum("x.commits", 0, n), jobs)
	m["core.fuel_per_job"] = ratio(d.sum("core.fuel_used", 0, n), jobs)
	warm, cold := d.sum("x.pool_warm", 0, n), d.sum("x.pool_cold", 0, n)
	m["core.vm_pool_warm_share"] = ratio(warm, warm+cold)

	lock := d.hist("sched.lock_wait", 0, n)
	m["sched.lock_wait_p99_us"] = us(lock, 0.99)
	m["sched.lock_wait_us_per_job"] = ratio(float64(lock.SumUs), jobs)

	hits, misses := d.sum("x.cache_hits", 0, n), d.sum("x.cache_misses", 0, n)
	bypass := d.sum("x.cache_bypass", 0, n)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.invalidations_per_write"] = ratio(d.sum("x.cache_invalidations", 0, n), writes)
	m["cache.bypass_share"] = ratio(bypass, hits+misses+bypass)
	m["cache.evictions"] = d.sum("x.cache_evictions", 0, n)

	exec := d.hist("core.vm_exec", 0, n)
	m["vm.exec_p50_us"] = us(exec, 0.5)
	m["vm.exec_p99_us"] = us(exec, 0.99)
	m["vm.exec_us_per_job"] = ratio(float64(exec.SumUs), jobs)

	ship := d.hist("repl.ship", 0, 1)
	m["replication.ship_p50_us"] = us(ship, 0.5)
	m["replication.ship_p99_us"] = us(ship, 0.99)
	m["replication.batch_size_mean"] = mean(d.hist("repl.batch_size", 0, 1))
	m["replication.shipped_per_job"] = ratio(d.sum("repl.shipped", 0, 1), jobs)
	m["replication.applied_per_job"] = ratio(d.sum("repl.applied", 1, n), jobs)
	m["replication.lease_expired"] = d.sum("lease.expired", 0, n)
	m["replication.stale_epoch"] = d.sum("repl.stale_epoch", 0, n)
	return m
}
