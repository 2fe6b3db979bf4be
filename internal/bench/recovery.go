package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lambdastore/internal/chaos"
	"lambdastore/internal/cluster"
	"lambdastore/internal/core"
	"lambdastore/internal/recovery"
)

// Recovery bench sweep: two base store sizes crossed with two downtime
// divergence levels. Catch-up streams only the ranges the digest diff
// flags, so the artifact's point is that rejoin bytes track the writes
// the node missed, not how much data it stores.
var (
	recoveryStoreSizes  = []int{256, 1024}
	recoveryDivergences = []int{16, 128}
)

// RecoveryPoint is one measured rejoin.
type RecoveryPoint struct {
	// StoreObjects is the object count in the base store (pre-crash).
	StoreObjects int `json:"store_objects"`
	// DowntimeWrites is how many distinct objects were written while the
	// node was down — the real divergence.
	DowntimeWrites int `json:"downtime_writes"`
	// RejoinSeconds is restart-to-membership as the joiner's state
	// machine measured it (begin through epoch-fenced admission).
	RejoinSeconds float64 `json:"rejoin_seconds"`
	// BytesStreamed is the catch-up chunk payload volume.
	BytesStreamed uint64 `json:"bytes_streamed"`
	// RangesDiverged counts object/meta ranges the digest diff flagged.
	RangesDiverged uint64 `json:"ranges_diverged"`
	// ChunksApplied counts bounded chunk applications at the joiner.
	ChunksApplied uint64 `json:"chunks_applied"`
	// Attempts counts sync attempts (>1 means a retry was needed).
	Attempts uint64 `json:"attempts"`
}

// RecoveryReport is the results/BENCH_recovery.json document.
type RecoveryReport struct {
	GeneratedBy    string          `json:"generated_by"`
	Nodes          int             `json:"nodes"`
	StoreObjects   []int           `json:"store_objects"`
	DowntimeWrites []int           `json:"downtime_writes"`
	Results        []RecoveryPoint `json:"results"`
	// DigestStoreScalingBytes is digest-mode bytes at the large store over
	// the small store, same divergence: ~1.0 means catch-up cost is bound
	// by divergence, not store size.
	DigestStoreScalingBytes float64 `json:"digest_bytes_large_over_small_store"`
}

// runRecoveryPoint boots a fresh 3-node chaos cluster, populates the base
// store, crashes a backup, writes the divergence during its downtime,
// restarts it and measures the rejoin.
func runRecoveryPoint(opts Options, storeObjects, downtimeWrites int) (RecoveryPoint, error) {
	out := RecoveryPoint{StoreObjects: storeObjects, DowntimeWrites: downtimeWrites}

	dir, err := opts.tempDir("recovery")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	c, err := chaos.Start(chaos.Options{BaseDir: dir})
	if err != nil {
		return out, err
	}
	defer c.Close()
	client := c.Client()

	typ, err := chaos.LedgerType()
	if err != nil {
		return out, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err = c.RefreshClientConfig()
		if err == nil && len(client.Directory().Groups()) > 0 {
			if err = client.RegisterType(typ); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			return out, fmt.Errorf("cluster never became configurable: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Base store: storeObjects ledgers, one entry each, written through
	// the replicated path (SyncWrites on — group commit amortizes).
	if err := populateLedgers(client, storeObjects); err != nil {
		return out, err
	}

	// Crash a backup and let the failure detector evict it.
	pi, err := c.PrimaryIndex()
	if err != nil {
		return out, err
	}
	bi := (pi + 1) % c.Nodes()
	if err := c.Kill(bi); err != nil {
		return out, err
	}
	if err := c.WaitEvicted(bi, 10*time.Second); err != nil {
		return out, err
	}

	// Downtime divergence: one append to each of the first downtimeWrites
	// objects. Retried because the surviving replicas' views settle
	// asynchronously after the eviction.
	for i := 0; i < downtimeWrites; i++ {
		id := core.ObjectID(i%storeObjects + 1)
		if err := appendRetry(client, id, int64(1_000_000+i)); err != nil {
			return out, fmt.Errorf("downtime write %d: %w", i, err)
		}
	}

	// Restart and measure the rejoin.
	if err := c.Restart(bi); err != nil {
		return out, err
	}
	if err := c.WaitBackup(bi, 60*time.Second); err != nil {
		return out, err
	}
	deadline = time.Now().Add(10 * time.Second)
	for c.Node(bi).RecoveryState() != recovery.StateMember {
		if time.Now().After(deadline) {
			return out, fmt.Errorf("node %d never reached member state", bi)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := c.Node(bi).RecoveryStatus()
	out.RejoinSeconds = st.LastRejoinSeconds
	out.BytesStreamed = st.BytesStreamed
	out.RangesDiverged = st.RangesDiverged
	out.ChunksApplied = st.ChunksApplied
	out.Attempts = st.Attempts
	return out, nil
}

// populateLedgers creates n ledgers and appends one entry to each, in
// parallel so WAL group commit amortizes the fsyncs.
func populateLedgers(client *cluster.Client, n int) error {
	const workers = 8
	jobs := make(chan int, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				id := core.ObjectID(i + 1)
				// Retried: routing views settle asynchronously right
				// after the cluster comes up.
				deadline := time.Now().Add(15 * time.Second)
				for {
					if err := client.CreateObject("Ledger", id); err == nil {
						break
					} else if time.Now().After(deadline) {
						errs <- fmt.Errorf("create %d: %w", id, err)
						return
					}
					time.Sleep(25 * time.Millisecond)
				}
				if err := appendRetry(client, id, int64(i)); err != nil {
					errs <- fmt.Errorf("append %d: %w", id, err)
					return
				}
			}
		}()
	}
	var sendErr error
	for i := 0; i < n; i++ {
		select {
		case sendErr = <-errs:
		case jobs <- i:
			continue
		}
		break
	}
	close(jobs)
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// appendRetry retries one ledger append through the client until it is
// acknowledged (reconfiguration windows reject writes transiently).
func appendRetry(client *cluster.Client, id core.ObjectID, v int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := client.Invoke(id, "append", [][]byte{core.I64Bytes(v)})
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// RunRecovery sweeps rejoin cost over (store size × divergence) and
// writes results/BENCH_recovery.json. An empty outPath skips the artifact.
func RunRecovery(opts Options, outPath string, w io.Writer) (*RecoveryReport, error) {
	rep := &RecoveryReport{
		GeneratedBy:    "make bench-recovery",
		Nodes:          3,
		StoreObjects:   recoveryStoreSizes,
		DowntimeWrites: recoveryDivergences,
	}
	if w != nil {
		fmt.Fprintln(w, "Recovery: backup crash, downtime writes, anti-entropy rejoin (digest diff)")
	}
	// Indexed by (store, divergence) for the headline ratio.
	bytesAt := make(map[[2]int]uint64)
	for _, storeObjects := range recoveryStoreSizes {
		for _, div := range recoveryDivergences {
			p, err := runRecoveryPoint(opts, storeObjects, div)
			if err != nil {
				return nil, fmt.Errorf("bench: recovery %d/%d: %w", storeObjects, div, err)
			}
			rep.Results = append(rep.Results, p)
			bytesAt[[2]int{storeObjects, div}] = p.BytesStreamed
			if w != nil {
				fmt.Fprintf(w, "  store=%-5d diverged=%-4d rejoin=%7.3fs bytes=%-9d ranges=%-5d chunks=%-4d attempts=%d\n",
					p.StoreObjects, p.DowntimeWrites, p.RejoinSeconds,
					p.BytesStreamed, p.RangesDiverged, p.ChunksApplied, p.Attempts)
			}
		}
	}

	small, large := recoveryStoreSizes[0], recoveryStoreSizes[len(recoveryStoreSizes)-1]
	minDiv := recoveryDivergences[0]
	if b := bytesAt[[2]int{small, minDiv}]; b > 0 {
		rep.DigestStoreScalingBytes = float64(bytesAt[[2]int{large, minDiv}]) / float64(b)
	}
	if w != nil {
		fmt.Fprintf(w, "  digest bytes, %dx store growth at fixed divergence: %.2fx (1.0 = divergence-bound)\n",
			large/small, rep.DigestStoreScalingBytes)
	}

	if outPath != "" {
		if err := writeRecoveryReport(rep, outPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeRecoveryReport stores the report as indented JSON.
func writeRecoveryReport(rep *RecoveryReport, path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
