// Command perfbench is the repository's end-to-end benchmark: one process
// that starts 16 live GSI-authenticated GRAM sites behind a simulated WAN
// and one durable Condor-G agent, drives a seeded workload through the
// agent's public API, checks every output, and prints every metric by
// name with its unit. See README.md in this directory.
//
//	perfbench --workload campaign --seed 1 --seconds 30 --trace 0
//	perfbench compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one traffic mix and the reason it is in the benchmark.
type workload struct {
	name string
	// spoolDelay puts the WAN delay on remote reads and appends against
	// the agent's GASS spool (staging traffic crosses the WAN).
	spoolDelay bool
	run        func(g *grid, seed int64, d time.Duration, watch func()) runResult
}

var workloads = []workload{
	{
		// The paper's high-throughput campaign: admission, journal group
		// commit, GRAM two-phase commit, callbacks and user logs under
		// saturation; staging is a cache hit after each site's first job.
		name: "campaign",
		run: func(g *grid, seed int64, d time.Duration, watch func()) runResult {
			return closedLoop(g, newCampaignJobs(seed), campaignWindow, d, watch)
		},
	},
	{
		// The staging data plane: 1 MiB executables, half unique, 16 KiB
		// stdin and 64 KiB stdout per job, spool traffic across the WAN.
		name:       "staged-io",
		spoolDelay: true,
		run: func(g *grid, seed int64, d time.Duration, watch func()) runResult {
			return closedLoop(g, newStagedJobs(seed), stagedWindow, d, watch)
		},
	},
}

const (
	// Closed-loop windows: jobs each submitter keeps outstanding. The
	// campaign window fills every site CPU and pipeline slot. A staged-io
	// submitter waits for each job before the next: every job leaves
	// about 1.7 MB of spool and cache files, and a saturating window
	// writes them faster than a shared disk's writeback keeps up with, so
	// throughput would follow the host's dirty-page throttling.
	campaignWindow = 64
	stagedWindow   = 1
)

// maxPrinted caps the violations printed to stderr; --out keeps them all.
const maxPrinted = 20

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result kept with --out: the printed line plus the
// host fingerprint and any violations.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Host       hostInfo          `json:"host"`
	Result     result            `json:"result"`
	Violations []string          `json:"violations,omitempty"`
	Extra      map[string]metric `json:"extra,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: campaign or staged-io")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", "", "append the full result record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	rec, err := runBench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.Seconds = *seconds
	for i, v := range rec.Violations {
		if i == maxPrinted {
			fmt.Fprintf(os.Stderr, "perfbench: %d more violations\n", len(rec.Violations)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: violation:", v)
	}
	// Strings and numbers only: these marshals cannot fail.
	host, _ := json.Marshal(rec.Host)
	fmt.Printf("host %s\n", host)
	if len(rec.Extra) > 0 {
		extra, _ := json.Marshal(rec.Extra)
		fmt.Printf("extra %s\n", extra)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBench runs one invocation: the workload on one grid for d.
// Untraced, it gives the end-to-end metrics; traced, the per-layer ones.
func runBench(w *workload, seed int64, d time.Duration, traced bool) (record, error) {
	rec := record{Workload: w.name, Seed: seed}
	root, err := stateRoot()
	if err != nil {
		return rec, err
	}
	if rec.Host, err = fingerprint(root); err != nil {
		return rec, fmt.Errorf("host fingerprint: %w", err)
	}
	creds, err := newCredentials()
	if err != nil {
		return rec, err
	}
	total0, steal0 := cpuTicks()
	r, err := runWorkload(w, seed, d, creds, root, traced)
	if err != nil {
		return rec, err
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		rec.Host.StealShare = (steal1 - steal0) / (total1 - total0)
	}
	set := newMetricSet()
	if traced {
		rec.Trace = 1
		perLayer(set, r)
	} else {
		endToEnd(set, r)
		rec.Extra = map[string]metric{"failed_ratio": {Value: r.failedRatio(), Unit: "ratio"}}
	}
	rec.Result = r.outcome(set.values)
	rec.Violations = r.violations
	// A failed run still prints its result; a correct one must have
	// measured every metric.
	if rec.Result.Correct && len(set.refused) > 0 {
		return rec, fmt.Errorf("too few samples: %v", set.refused)
	}
	return rec, nil
}

// outcome is the printed result of the run.
func (r *run) outcome(metrics map[string]metric) result {
	failed := r.failedOps + len(r.violations)
	return result{Correct: failed == 0, Attempted: len(r.res.samples), Failed: failed, Metrics: metrics}
}

// failedRatio is failed operations plus violations over operations.
func (r *run) failedRatio() float64 {
	o := r.outcome(nil)
	return float64(o.Failed) / float64(o.Attempted)
}

// endToEnd computes the metrics a user of the agent sees.
func endToEnd(m *metricSet, r *run) {
	turn, jps, mbps := r.completedStats()
	submits, queries := opLatencies(r.res.samples, opSubmit), opLatencies(r.res.samples, opQuery)
	m.set("setup_s", "s", median(r.setup))
	m.set("jobs_per_s", "jobs/s", jps)
	m.setTail("submit_ms.p50", "ms", submits, 0.50)
	m.setTail("submit_ms.p95", "ms", submits, 0.95)
	m.setTail("turnaround_ms.p50", "ms", turn, 0.50)
	m.setTail("turnaround_ms.p95", "ms", turn, 0.95)
	m.setTail("query_ms.p50", "ms", queries, 0.50)
	m.setTail("query_ms.p95", "ms", queries, 0.95)
	m.set("io_mb_per_s", "MB/s", mbps)
	m.set("cpu_ms_per_job", "ms", ms(r.cpu)/float64(r.acked))
	m.set("heap_peak_mb", "MB", r.heapPeak/1e6)
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(m *metricSet, r *run) {
	jobs := float64(r.acked)
	cols := make([][]float64, len(tracePhases))
	var tiled, turnSum float64
	for i, t := range r.tiles {
		for p, v := range t {
			cols[p] = append(cols[p], v)
			tiled += v
		}
		turnSum += r.tiledTurn[i]
	}
	for p, name := range tracePhases {
		m.setTail(name+".p50", "ms", cols[p], 0.50)
		m.setTail(name+".p95", "ms", cols[p], 0.95)
	}
	unexplained := 1.0
	if turnSum > 0 {
		unexplained = 1 - tiled/turnSum
	}
	m.set("bench.trace_unexplained_share", "ratio", unexplained)
	m.set("bench.tiled_jobs_share", "ratio", float64(len(r.tiles))/jobs)
	snapshotLayers(m, r.snap, jobs)
	// The setup job is in the recovered table too.
	m.set("condorg.recover_us_per_job", "us", 1e6*median(r.recovered)/(jobs+1))
	for _, verb := range frameVerbs {
		m.set("wire.frames_per_job."+verb, "count", float64(r.frames[verb])/jobs)
	}
	m.set("proc.allocs_per_job", "count", r.allocObjs/jobs)
	m.set("proc.alloc_kb_per_job", "KB", r.allocBytes/1e3/jobs)
	m.set("proc.fds_per_job", "count", r.fdGrowth/jobs)
	m.set("proc.goroutines_per_job", "count", r.goroutineGrowth/jobs)
	for name, share := range cpuShares(r.prof.samples) {
		m.set("cpu_share."+name, "ratio", share)
	}
	m.set("bench.trace_overhead", "ratio", r.prof.overhead(r.outcomes))
	m.set("failed_ratio", "ratio", r.failedRatio())
}
