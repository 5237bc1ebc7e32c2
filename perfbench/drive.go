package main

// The load generators. Each uses at most genGoroutines goroutines and no
// connections of its own: every operation is a call into the agent's
// public Go API.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"condorg/internal/condorg"
)

// genGoroutines caps the load generator's goroutines at the reference
// host's CPU count (2), whatever GOMAXPROCS is.
const genGoroutines = 2

// drainTimeout bounds the wait for outstanding jobs once submission stops.
// A healthy grid drains in well under a second.
const drainTimeout = 20 * time.Second

// sample is the harness's span around one call into the agent.
type sample struct {
	kind  opKind
	due   time.Time // when the operation was due (its start in a closed loop)
	start time.Time
	end   time.Time
	err   error
}

// job is one acknowledged or attempted submission.
type job struct {
	in       jobInput // without the executable
	execSize int
	id       string // "" when the submit was refused
	due      time.Time
}

// runResult is what a generator hands to the metric and oracle stages.
type runResult struct {
	jobs    []*job
	samples []sample
	begin   time.Time // first operation due
	drainOK bool
}

// pollEvery is how often a closed-loop submitter reads its owner's queue
// page, as a user watching the queue would. A page read sorts the owner's
// whole job table, so polling much faster would make campaign a benchmark
// of queue reads.
const pollEvery = 100 * time.Millisecond

// closedLoop drives window jobs per submitter through the agent until d
// has passed, then waits for the stragglers. Each submitter also reads
// its queue page every pollEvery. watch runs on the calling goroutine
// while the submitters work.
func closedLoop(g *grid, src jobSource, window int, d time.Duration, watch func()) runResult {
	var mu sync.Mutex // guards src
	nextJob := func() jobInput {
		mu.Lock()
		defer mu.Unlock()
		return src.next()
	}
	res := runResult{begin: time.Now()}
	deadline := res.begin.Add(d)
	drainLimit := deadline.Add(drainTimeout)
	perGen := make([]runResult, genGoroutines)
	var wg sync.WaitGroup
	var finished atomic.Int32
	for k := 0; k < genGoroutines; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer finished.Add(1)
			var out runResult
			var open []*job
			owner := ""
			nextPoll := res.begin.Add(pollEvery)
			for {
				now := time.Now()
				if owner != "" && !now.Before(nextPoll) && now.Before(deadline) {
					// A closed loop has no schedule: the read is due
					// when the submitter gets to it.
					out.samples = append(out.samples, queryPage(g, owner, now))
					nextPoll = now.Add(pollEvery)
					continue
				}
				if now.Before(deadline) && len(open) < window {
					j, s := submit(g, nextJob(), now)
					owner = j.in.owner
					out.jobs = append(out.jobs, j)
					out.samples = append(out.samples, s)
					if j.id != "" {
						open = append(open, j)
					}
					continue
				}
				if len(open) == 0 || now.After(drainLimit) {
					break
				}
				until := drainLimit
				if now.Before(deadline) {
					until = nextPoll
				}
				waitAny(g, &open, until)
			}
			perGen[k] = out
		}()
	}
	for finished.Load() < genGoroutines {
		watch()
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	res.drainOK = true
	for _, r := range perGen {
		res.jobs = append(res.jobs, r.jobs...)
		res.samples = append(res.samples, r.samples...)
	}
	for _, j := range res.jobs {
		if j.id == "" {
			continue
		}
		if done, _ := g.notes.isDone(j.id); !done {
			res.drainOK = false
		}
	}
	return res
}

// waitAny blocks until at least one job of open has a terminal
// notification or until passes, and drops the finished jobs.
func waitAny(g *grid, open *[]*job, until time.Time) {
	for {
		var wake <-chan struct{}
		kept := (*open)[:0]
		for _, j := range *open {
			done, ch := g.notes.isDone(j.id)
			if !done {
				kept = append(kept, j)
				wake = ch
			}
		}
		finished := len(kept) < len(*open)
		*open = kept
		left := time.Until(until)
		if finished || len(kept) == 0 || left <= 0 {
			return
		}
		t := time.NewTimer(left)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// queryPage reads owner's first queue page, timed from due.
func queryPage(g *grid, owner string, due time.Time) sample {
	start := time.Now()
	page, _ := g.agent.JobsFiltered(condorg.JobFilter{Owner: owner, Limit: 50})
	s := sample{kind: opQuery, due: due, start: start, end: time.Now()}
	for _, info := range page {
		if info.Owner != owner {
			s.err = fmt.Errorf("queue page of %s lists job %s of %s", owner, info.ID, info.Owner)
		}
	}
	return s
}

func submit(g *grid, in jobInput, due time.Time) (*job, sample) {
	start := time.Now()
	id, err := g.agent.Submit(condorg.SubmitRequest{
		Owner:      in.owner,
		Executable: in.exec,
		Stdin:      in.stdin,
		Args:       []string{in.token},
	})
	end := time.Now()
	j := &job{in: in, execSize: len(in.exec), id: id, due: due}
	j.in.exec = nil // a megabyte per staged-io job: keep only its size
	return j, sample{kind: opSubmit, due: due, start: start, end: end, err: err}
}
