package main

// The host fingerprint recorded with every result, so numbers from
// different machines are never compared by accident.

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	CPUModel   string  `json:"cpu_model"`
	FsyncMS    float64 `json:"fsync_ms"` // median write+fsync of 4 KiB in the state directory
	// StealShare is the share of the host's CPU time the hypervisor gave
	// to other guests over the run: runs with a large share ran slow.
	StealShare float64 `json:"steal_share"`
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: total ticks and
// steal ticks (zeros if unreadable).
func cpuTicks() (total, steal float64) {
	line, _, _ := strings.Cut(readTrim("/proc/stat"), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func fingerprint(dir string) (hostInfo, error) {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
	}
	fsync, err := fsyncCost(dir)
	h.FsyncMS = fsync
	return h, err
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsyncCost is the median of 16 write+fsync rounds of 4 KiB in dir: the
// floor under every durable journal commit on this filesystem.
func fsyncCost(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var costs []float64
	for i := 0; i < 16; i++ {
		start := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		costs = append(costs, ms(time.Since(start)))
	}
	return median(costs), nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stateRoot is where runs keep their state directories: inside the
// checkout's build directory, never in a system temp directory.
func stateRoot() (string, error) {
	dir := filepath.Join(".bench_build", "state")
	return dir, os.MkdirAll(dir, 0o700)
}
