package main

// Metric definitions: the end-to-end metrics a user of the agent sees, and
// the per-layer metrics that say where the time and CPU went.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/obs"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics and the percentiles it had too few
// samples to report.
type metricSet struct {
	values  map[string]metric
	refused []string
}

func newMetricSet() *metricSet {
	return &metricSet{values: make(map[string]metric)}
}

func (m *metricSet) set(name, unit string, v float64) {
	m.values[name] = metric{Value: v, Unit: unit}
}

// setTail records under name the q-percentile of xs. A percentile with
// fewer than minBeyond samples beyond it is refused: it is noted in
// refused and reported as 0, never as a lower quantile under its name.
func (m *metricSet) setTail(name, unit string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		m.refused = append(m.refused, fmt.Sprintf("%s (%d samples)", name, len(xs)))
	}
	m.set(name, unit, v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracePhases is the per-job trace tiling of turnaround: six consecutive
// intervals from the submit's due time to FinishedAt. Only the program's
// own run, between its start and end, is left unexplained.
var tracePhases = []string{
	"condorg.queue_ms",   // submit due -> first dispatch
	"gram.stage_ms",      // stage dispatch -> stage event
	"condorg.requeue_ms", // stage event -> submit dispatch
	"gram.two_phase_ms",  // submit dispatch -> commit
	"lrm.start_ms",       // commit -> program start (negative when the site starts the program before the agent records the commit reply)
	"condorg.notify_ms",  // program end -> FinishedAt
}

// tileTrace splits one completed job's timeline into tracePhases. ok is
// false when the timeline does not have the single-incarnation shape
// (dispatch, stage, dispatch, commit) the tiling assumes.
func tileTrace(tl obs.Timeline, submit, progStart, progEnd, finished time.Time) (phases []float64, ok bool) {
	var stage, commit time.Time
	var dispatch []time.Time
	for _, ev := range tl.Events {
		switch ev.Phase {
		case obs.PhaseDispatch:
			dispatch = append(dispatch, ev.Wall)
		case obs.PhaseStage:
			if len(dispatch) == 1 {
				stage = ev.Wall
			}
		case obs.PhaseCommit:
			if commit.IsZero() {
				commit = ev.Wall
			}
		}
	}
	if len(dispatch) != 2 || stage.IsZero() || commit.IsZero() || progStart.IsZero() || progEnd.IsZero() {
		return nil, false
	}
	return []float64{
		ms(dispatch[0].Sub(submit)),
		ms(stage.Sub(dispatch[0])),
		ms(dispatch[1].Sub(stage)),
		ms(commit.Sub(dispatch[1])),
		ms(progStart.Sub(commit)),
		ms(finished.Sub(progEnd)),
	}, true
}

// snapshotIndex is a MetricsSnapshot keyed by name.
type snapshotIndex map[string]obs.Metric

func indexSnapshot(ms []obs.Metric) snapshotIndex {
	idx := make(snapshotIndex, len(ms))
	for _, m := range ms {
		idx[m.Name] = m
	}
	return idx
}

// count is a counter's value or a histogram's lifetime count.
func (s snapshotIndex) count(name string) float64 {
	m := s[name]
	if m.Type == "histogram" {
		return float64(m.Count)
	}
	return m.Value
}

// mean is a histogram's lifetime mean (0 without observations).
func (s snapshotIndex) mean(name string) float64 {
	m := s[name]
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// rttVerbs are the GRAM client's instrumented verbs (gram_rtt_seconds).
var rttVerbs = []string{
	"submit", "commit", "batch-submit", "batch-commit",
	"stage-check", "stage-chunk", "stage-commit",
	"status", "batch-status", "cancel", "batch-cancel",
}

// frameVerbs are the request verbs counted at the server seams: site
// gatekeepers and JobManagers, the agent's GASS spool and its callback
// server.
var frameVerbs = []string{
	"gram.submit", "gram.commit", "gram.batch-submit", "gram.batch-commit",
	"gram.stage-check", "gram.stage-chunk", "gram.stage-commit",
	"jm.status", "jm.batch-status", "jm.cancel", "jm.batch-cancel",
	"gass.write", "gass.read", "gass.append", "wire.hello", "gram.callback",
}

// snapshotLayers derives the MetricsSnapshot per-layer metrics over jobs.
func snapshotLayers(m *metricSet, snap []obs.Metric, jobs float64) {
	s := indexSnapshot(snap)
	per := func(v float64) float64 {
		if jobs == 0 {
			return 0
		}
		return v / jobs
	}
	m.set("condorg.persists_per_job", "count", per(s.count("agent_persist_seconds")))
	m.set("condorg.persist_ms.mean", "ms", 1000*s.mean("agent_persist_seconds"))
	m.set("journal.fsyncs_per_job", "count", per(s.count("journal_flush_seconds")))
	m.set("journal.records_per_fsync", "count", s.mean("journal_batch_records"))
	m.set("journal.fsync_ms.mean", "ms", 1000*s.mean("journal_flush_seconds"))
	m.set("condorg.worker_stalls_per_job", "count", per(s.count("gm_worker_stalls_total")))
	for _, verb := range rttVerbs {
		m.set("gram.rtt_ms.mean."+verb, "ms", 1000*s.mean(obs.Key("gram_rtt_seconds", "verb", verb)))
	}
	hits, misses := s.count("stage_cache_hits_total"), s.count("stage_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m.set("stage.cache_hit_ratio", "ratio", ratio)
	m.set("stage.bytes_per_job", "B", per(s.count("stage_bytes_total")))
}

// jobOutcome is the metrics' view of one completed job.
type jobOutcome struct {
	job  *job
	info condorg.JobInfo
}

// turnaroundMS is submit due time -> FinishedAt. The bench program
// returns at once, so there is no scripted run time to take off.
func (o jobOutcome) turnaroundMS() float64 {
	return ms(o.info.FinishedAt.Sub(o.job.due))
}

// opLatencies returns the latency, in ms from due time, of every sample of
// kind that succeeded.
func opLatencies(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind && s.err == nil {
			out = append(out, ms(s.end.Sub(s.due)))
		}
	}
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// packageOf maps a profile function name to its Go package path.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
