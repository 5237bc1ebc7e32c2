package main

// One run: start the grid (several timed starts), drive the workload on
// one grid for the whole run, check every output, recover the agent from
// its state directory, tear the grid down, and time a few more starts.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/obs"
)

const (
	// setupReps is how many times a run starts a grid and submits one
	// job, timed for setup_s (the median). The first setupBefore starts
	// come before the workload, which runs on the last of them; the rest
	// follow its teardown. A start takes a few milliseconds, and its cost
	// drifts with the host's disk and CPU over a run, so the starts sample
	// both ends of it.
	setupReps   = 11
	setupBefore = 6
	// recoverReps is how many times a run recovers the agent from the
	// finished state directory; condorg.recover_us_per_job uses the median.
	recoverReps = 9
	// profileWindow is the length of the alternating windows in which a
	// traced run's CPU profiler is on and off.
	profileWindow = time.Second
)

// run is everything one run observed.
type run struct {
	setup      []float64 // seconds per timed grid start
	res        runResult
	outcomes   []jobOutcome
	acked      int
	failedOps  int
	violations []string
	cpu        time.Duration
	heapPeak   float64 // bytes
	allocObjs  float64
	allocBytes float64
	// Open file descriptors and goroutines the workload left behind once
	// every job was terminal: resources held for finished jobs.
	fdGrowth, goroutineGrowth float64
	snap                      []obs.Metric
	recovered                 []float64 // seconds per recovery
	// Traced runs only.
	prof      *profiler
	frames    map[string]int64
	tiles     [][]float64 // per tiled job, tracePhases order
	tiledTurn []float64   // turnaround of each tiled job
}

func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// startTimed starts a grid and submits one setup job, returning the grid,
// the job, and the seconds from start until the submit was accepted.
func startTimed(w *workload, seed int64, rep int, creds credentials, root string) (*grid, *job, float64, error) {
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, nil, 0, err
	}
	flushDirty()
	start := time.Now()
	g, err := startGrid(dir, creds, w.spoolDelay)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	in := jobInput{owner: "setup", exec: newCampaignJobs(seed).exec, token: fmt.Sprintf("setup-%d-%d", seed, rep)}
	setupJob, _ := submit(g, in, start)
	elapsed := time.Since(start).Seconds()
	if setupJob.id == "" {
		g.close()
		return nil, nil, 0, errors.New("setup: the first submit was refused")
	}
	return g, setupJob, elapsed, nil
}

// runWorkload runs the workload for d on one grid. traced adds the frame
// counters and the windowed CPU profile.
func runWorkload(w *workload, seed int64, d time.Duration, creds credentials, root string, traced bool) (*run, error) {
	r := &run{}
	var g *grid
	var setupJob *job
	for rep := 0; rep < setupBefore; rep++ {
		if g != nil {
			g.close()
		}
		var took float64
		var err error
		if g, setupJob, took, err = startTimed(w, seed, rep, creds, root); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, took)
	}
	defer func() {
		if g != nil {
			g.close()
		}
	}()

	heap := newHeapSampler()
	watch := heap.sample
	if traced {
		waitDone(g, setupJob.id) // keep the setup job's frames out of the counts
		g.counting.Store(true)
		r.prof = &profiler{span: d}
		watch = func() { heap.sample(); r.prof.tick() }
	}
	allocs0 := readAllocs()
	fds0, goroutines0 := openFDs(), runtime.NumGoroutine()
	cpu0 := cpuTime()
	r.res = w.run(g, seed, d, watch)
	r.cpu = cpuTime() - cpu0
	r.fdGrowth = float64(openFDs() - fds0)
	r.goroutineGrowth = float64(runtime.NumGoroutine() - goroutines0)
	allocs1 := readAllocs()
	r.allocObjs, r.allocBytes = allocs1[0]-allocs0[0], allocs1[1]-allocs0[1]
	r.heapPeak = heap.peak
	if traced {
		r.prof.finish()
		g.counting.Store(false)
		if r.prof.err != nil {
			return nil, r.prof.err
		}
		r.frames = make(map[string]int64)
		for _, verb := range frameVerbs {
			r.frames[verb] = g.frames.get(verb)
		}
	}
	r.snap = g.agent.MetricsSnapshot()
	if !r.res.drainOK {
		r.violate("jobs still running %s after submission stopped", drainTimeout)
	}
	checked := time.Now()
	g.local.Store(true)
	r.check(g, setupJob, traced)
	recovered := time.Now()
	g.stopSites()
	r.recoverCheck(g)
	closed := time.Now()
	g.close()
	g = nil
	tornDown := time.Now()
	for rep := setupBefore; rep < setupReps; rep++ {
		g2, _, took, err := startTimed(w, seed, rep, creds, root)
		if err != nil {
			return nil, err
		}
		g2.close()
		r.setup = append(r.setup, took)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: setup %.4fs, run+drain %v, check %v, recover %v, teardown %v\n", w.name,
		median(r.setup), checked.Sub(r.res.begin).Round(time.Millisecond), recovered.Sub(checked).Round(time.Millisecond),
		closed.Sub(recovered).Round(time.Millisecond), tornDown.Sub(closed).Round(time.Millisecond))
	return r, nil
}

// check is the correctness oracle over every operation and job.
func (r *run) check(g *grid, setupJob *job, traced bool) {
	for _, smp := range r.res.samples {
		if smp.err != nil {
			r.failedOps++
		}
	}
	waitDone(g, setupJob.id)
	for _, j := range append([]*job{setupJob}, r.res.jobs...) {
		if j.id == "" {
			if rr := g.ledger.get(j.in.token); rr.runs != 0 {
				r.violate("refused job %s ran %d times", j.in.token, rr.runs)
			}
			continue
		}
		if j != setupJob {
			r.acked++
		}
		info, err := g.agent.Status(j.id)
		if err != nil {
			r.violate("acknowledged job %s lost: %v", j.id, err)
			continue
		}
		ran := g.ledger.get(j.in.token)
		if info.State != condorg.Completed {
			r.violate("job %s ended %v, want completed (%s)", j.id, info.State, info.Error)
			continue
		}
		if ran.runs != 1 {
			r.violate("job %s ran %d times, want exactly once", j.id, ran.runs)
		}
		out, err := g.agent.Stdout(j.id)
		if err != nil || !bytes.Equal(out, expectedStdout(j.in.stdin)) {
			r.violate("job %s stdout is %d bytes, want %d (err %v)", j.id, len(out), len(expectedStdout(j.in.stdin)), err)
		}
		if j == setupJob {
			continue
		}
		o := jobOutcome{job: j, info: info}
		r.outcomes = append(r.outcomes, o)
		if traced {
			tl, err := g.agent.Trace(j.id)
			if err != nil {
				r.violate("trace of %s: %v", j.id, err)
				continue
			}
			if tiles, ok := tileTrace(tl, j.due, ran.start, ran.end, info.FinishedAt); ok {
				r.tiles = append(r.tiles, tiles)
				r.tiledTurn = append(r.tiledTurn, o.turnaroundMS())
			}
		}
	}
}

// waitDone waits for one job's terminal notification, up to drainTimeout.
func waitDone(g *grid, id string) {
	limit := time.Now().Add(drainTimeout)
	for time.Now().Before(limit) {
		done, ch := g.notes.isDone(id)
		if done {
			return
		}
		select {
		case <-ch:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// recoverCheck reopens the agent on the finished run's state directory
// and checks it lists every completed job in the same state. The sites
// stand for remote machines and are stopped first, so the timed
// recoveries do not share the CPUs with them: at this commit every
// finished job's JobManager still runs a 10 ms ticker on its site.
func (r *run) recoverCheck(g *grid) {
	for rep := 0; rep < recoverReps; rep++ {
		d, err := g.reopenAgent()
		if err != nil {
			r.violate("%v", err)
			return
		}
		r.recovered = append(r.recovered, d.Seconds())
	}
	for _, o := range r.outcomes {
		info, err := g.agent.Status(o.job.id)
		switch {
		case err != nil:
			r.violate("recovery lost job %s", o.job.id)
		case info.State != o.info.State:
			r.violate("recovery changed job %s from %v to %v", o.job.id, o.info.State, info.State)
		}
	}
}

// completedStats returns the completed jobs' turnarounds, and the jobs
// per second and MB per second they make over the run (first submit to
// last FinishedAt).
func (r *run) completedStats() (turn []float64, jobsPerS, mbPerS float64) {
	var last time.Time
	var moved float64
	for _, o := range r.outcomes {
		turn = append(turn, o.turnaroundMS())
		if o.info.FinishedAt.After(last) {
			last = o.info.FinishedAt
		}
		moved += float64(o.job.execSize + len(o.job.in.stdin) + len(expectedStdout(o.job.in.stdin)))
	}
	wall := last.Sub(r.res.begin).Seconds()
	if wall <= 0 {
		return turn, 0, 0
	}
	return turn, float64(len(turn)) / wall, moved / 1e6 / wall
}

// interval is a span of wall-clock time.
type interval struct{ from, to time.Time }

// profiler runs the CPU profiler in alternate profileWindow windows over
// the first span of the workload, so a traced run holds its own
// unprofiled reference for bench.trace_overhead. tick runs on the
// harness's watch goroutine.
type profiler struct {
	span    time.Duration
	begin   time.Time
	on      bool
	since   time.Time
	buf     bytes.Buffer
	samples []stackSample
	windows []interval // closed windows with the profiler on
	err     error
}

func (p *profiler) tick() {
	now := time.Now()
	if p.begin.IsZero() {
		p.begin = now
	}
	elapsed := now.Sub(p.begin)
	want := elapsed < p.span && (elapsed/profileWindow)%2 == 1
	switch {
	case want && !p.on && p.err == nil:
		p.buf.Reset()
		if p.err = pprof.StartCPUProfile(&p.buf); p.err == nil {
			p.on, p.since = true, now
		}
	case !want && p.on:
		p.stop(now)
	}
}

func (p *profiler) stop(now time.Time) {
	pprof.StopCPUProfile()
	p.on = false
	p.windows = append(p.windows, interval{p.since, now})
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil && p.err == nil {
		p.err = err
	}
	p.samples = append(p.samples, samples...)
}

// finish stops a profile still running when the workload ended.
func (p *profiler) finish() {
	if p.on {
		p.stop(time.Now())
	}
}

// overhead is the unprofiled over the profiled completion rate: jobs
// finished per second inside the profiled windows against the rest of
// the profiler's span.
func (p *profiler) overhead(outcomes []jobOutcome) float64 {
	end := p.begin.Add(p.span)
	var onTime time.Duration
	for _, w := range p.windows {
		onTime += w.to.Sub(w.from)
	}
	var on, off float64
	for _, o := range outcomes {
		at := o.info.FinishedAt
		if at.Before(p.begin) || !at.Before(end) {
			continue
		}
		inside := false
		for _, w := range p.windows {
			if !at.Before(w.from) && at.Before(w.to) {
				inside = true
			}
		}
		if inside {
			on++
		} else {
			off++
		}
	}
	offTime := p.span - onTime
	if on == 0 || onTime <= 0 || offTime <= 0 {
		return 0
	}
	return (off / offTime.Seconds()) / (on / onTime.Seconds())
}

// heapSampler tracks the highest Go heap in use seen by sample.
type heapSampler struct {
	samples []metrics.Sample
	peak    float64
	last    time.Time
}

func newHeapSampler() *heapSampler {
	return &heapSampler{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

// sample reads the heap at most every 10 ms.
func (h *heapSampler) sample() {
	if time.Since(h.last) < 10*time.Millisecond {
		return
	}
	h.last = time.Now()
	metrics.Read(h.samples)
	inUse := float64(h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64())
	if inUse > h.peak {
		h.peak = inUse
	}
}

// flushDirty writes the host's dirty pages back before a timed start or
// recovery. On ext4 an fsync can wait for unrelated dirty data, and a
// staged-io run leaves hundreds of megabytes of spool files behind;
// without the flush, setup and recovery times measured that writeback backlog
// (recovery swung 3× between runs) instead of the agent.
func flushDirty() { syscall.Sync() }

// openFDs counts the process's open file descriptors (-1 if unknown).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// readAllocs returns the cumulative heap allocations: objects, bytes.
func readAllocs() [2]float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return [2]float64{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}
