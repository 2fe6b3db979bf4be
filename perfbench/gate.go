package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"lambdastore/internal/store"
	"lambdastore/internal/telemetry"
)

// quiescePolicy states when the stores flush and compact under the
// benchmark; it is part of the flush policy every result records.
const quiescePolicy = "memtable flushes and compactions run only while no job is in flight, " +
	"forced once any store has logged a quarter of its memtable since the last"

// compactionGate keeps every store's flushes and compactions out of the
// jobs. Each job holds the gate shared; once any store's WAL has grown by
// limit bytes since the last drain, the job that saw it takes the gate
// alone, so that no job is in flight, and flushes and compacts every store.
// With limit well under the memtable size, no store fills a memtable
// between drains, so none flushes or compacts on its own while jobs run.
//
// The gate exists because a compaction that installs while a read is
// between taking the store's table list and opening a table unlinks the
// table under the read, which then fails with "store: open sstable: ... no
// such file or directory". Until the store pins the tables of its reads,
// running jobs beside compactions fails about one job in a million.
type compactionGate struct {
	mu     sync.RWMutex
	stores []*store.DB
	wal    []*telemetry.Counter // each store's store.wal_bytes
	mark   []uint64             // wal at the last drain; written under mu held alone
	limit  uint64

	// Written under mu held alone, read once the jobs are done.
	drains    int
	drainTime time.Duration
	err       error
}

// newCompactionGate gates stores, whose metric registries are regs, in the
// same order.
func newCompactionGate(stores []*store.DB, regs []*telemetry.Registry) (*compactionGate, error) {
	g := &compactionGate{
		stores: stores,
		limit:  uint64(store.NewOptions().MemtableBytes / 4),
		mark:   make([]uint64, len(stores)),
	}
	for i, reg := range regs {
		if !slices.Contains(reg.CounterNames(), "store.wal_bytes") {
			return nil, fmt.Errorf("store %d exports no store.wal_bytes counter", i)
		}
		c := reg.Counter("store.wal_bytes")
		g.wal = append(g.wal, c)
		g.mark[i] = c.Value()
	}
	return g, nil
}

// enter waits out a drain and holds the gate for one job.
func (g *compactionGate) enter() { g.mu.RLock() }

// exit releases the gate after a job and drains the stores if the job
// took a store's WAL past the limit.
func (g *compactionGate) exit() {
	full := g.full()
	g.mu.RUnlock()
	if full {
		g.drain()
	}
}

// full reports whether a store has logged limit bytes since the last
// drain. The caller holds mu.
func (g *compactionGate) full() bool {
	for i, c := range g.wal {
		if c.Value()-g.mark[i] >= g.limit {
			return true
		}
	}
	return false
}

// drain flushes and compacts every store while no job is in flight.
func (g *compactionGate) drain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.full() { // another job drained first
		return
	}
	t0 := time.Now()
	for i, db := range g.stores {
		if err := db.Flush(); err != nil && g.err == nil {
			g.err = fmt.Errorf("flush store %d: %w", i, err)
		}
		if err := db.CompactNow(); err != nil && g.err == nil {
			g.err = fmt.Errorf("compact store %d: %w", i, err)
		}
	}
	for i, c := range g.wal {
		g.mark[i] = c.Value()
	}
	g.drains++
	g.drainTime += time.Since(t0)
}
