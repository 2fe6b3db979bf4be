package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lambdastore/internal/workload"
)

// envelope is what a result needs beside its numbers to be compared with
// another: the code measured, the host it ran on, and how busy the host was.
type envelope struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Started is when the run began; -compare uses it to check that the
	// runs of two sets alternated.
	Started         time.Time `json:"started"`
	Trace           bool      `json:"trace"`
	Seconds         int       `json:"seconds"`
	GitRev          string    `json:"git_rev"`
	SourceSHA256    string    `json:"source_sha256"`
	NProc           int       `json:"nproc"`
	GOMAXPROCS      int       `json:"gomaxprocs"`
	GoVersion       string    `json:"go_version"`
	CPUModel        string    `json:"cpu_model"`
	Accounts        int       `json:"accounts"`
	MeanFollowers   int       `json:"mean_followers"`
	ZipfS           float64   `json:"zipf_s"`
	MsgLen          int       `json:"msg_len"`
	PostsPerAccount int       `json:"seeded_posts_per_account"`
	Clients         int       `json:"clients"`
	Replicas        int       `json:"replicas"`
	FlushPolicy     string    `json:"flush_policy"`
	// CalibrationMs is the median time of a fixed pure-CPU task taken just
	// before the run; it rises when the host is slower or busier.
	CalibrationMs float64 `json:"calibration_ms"`
	// StealTicks is the CPU time, in USER_HZ ticks summed over all CPUs,
	// the hypervisor gave to other guests during the run.
	StealTicks uint64 `json:"steal_ticks"`
	// WindowStealTicks is the part of StealTicks that fell in the
	// measured window.
	WindowStealTicks uint64 `json:"window_steal_ticks"`
}

// calibrate times a fixed SHA-256 workload five times and returns the
// median in milliseconds.
func calibrate() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	var runs []time.Duration
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		sum := sha256.Sum256(buf)
		for i := 0; i < 200; i++ {
			copy(buf, sum[:])
			sum = sha256.Sum256(buf)
		}
		runs = append(runs, time.Since(t0))
	}
	return quantile(runs, 0.5) / float64(time.Millisecond)
}

// stealTicks reads the host-wide steal counter from /proc/stat; it reads 0
// where the file does not exist.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// cpuTime is the user and system CPU time the process has used. The kernel
// charges time the hypervisor steals to steal, not to the process.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the checkout's commit, or "none" where the current directory
// is not the top of a git work tree.
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under the current
// directory, skipping the build directory, so that runs of the same code
// can be matched without git.
func sourceDigest() (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (path == buildDir || strings.HasPrefix(e.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !e.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// buildDir is where run.sh keeps everything the benchmark builds or writes.
const buildDir = ".bench_build"

func newEnvelope(wl string, cfg workload.Config, trace bool, seconds int) (*envelope, error) {
	digest, err := sourceDigest()
	if err != nil {
		return nil, err
	}
	return &envelope{
		Workload:        wl,
		Seed:            cfg.Seed,
		Started:         time.Now(),
		Trace:           trace,
		Seconds:         seconds,
		GitRev:          gitRev(),
		SourceSHA256:    digest,
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		CPUModel:        cpuModel(),
		Accounts:        cfg.Accounts,
		MeanFollowers:   cfg.MeanFollowers,
		ZipfS:           cfg.ZipfS,
		MsgLen:          cfg.MsgLen,
		PostsPerAccount: postsPerAccount,
		Clients:         clients(),
		Replicas:        replicas,
		FlushPolicy:     flushPolicy,
	}, nil
}
