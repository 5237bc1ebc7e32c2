package main

import (
	"encoding/binary"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", v, ok)
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples must be refused")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 990 {
		// xs[:20] holds 1000..981; nearest rank 10 of 20 is 990.
		t.Fatalf("p50 of 981..1000 = %v, %v; want 990", v, ok)
	}
}

func TestSetTailRefusesThinTail(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	m := newMetricSet()
	m.setTail("x.p95", "ms", xs, 0.95)
	m.setTail("x.p99", "ms", xs, 0.99)
	if got := m.values["x.p95"].Value; got != 475 {
		t.Fatalf("p95 of 1..500 = %v, want 475", got)
	}
	// 500 samples leave 5 beyond p99: refused, not reported as a p98.
	if got := m.values["x.p99"].Value; got != 0 || !reflect.DeepEqual(m.refused, []string{"x.p99 (500 samples)"}) {
		t.Fatalf("p99 of 500 samples reported %v, refused %q", got, m.refused)
	}
}

func TestJobSourcesAreSeeded(t *testing.T) {
	draw := func(src jobSource) []jobInput {
		var out []jobInput
		for i := 0; i < 8; i++ {
			out = append(out, src.next())
		}
		return out
	}
	for name, mk := range map[string]func(int64) jobSource{
		"campaign":  func(s int64) jobSource { return newCampaignJobs(s) },
		"staged-io": func(s int64) jobSource { return newStagedJobs(s) },
	} {
		a, b, c := draw(mk(7)), draw(mk(7)), draw(mk(8))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds gave the same inputs", name)
		}
	}
	src := newStagedJobs(7)
	staged := draw(src)
	unique := 0
	for _, in := range staged {
		if len(in.exec) != stagedExecSize || len(in.stdin) != stagedStdin {
			t.Fatalf("staged job sizes %d/%d", len(in.exec), len(in.stdin))
		}
		if !reflect.DeepEqual(in.exec, src.shared) {
			unique++
		}
	}
	if unique == 0 || unique == len(staged) {
		t.Fatalf("%d of %d staged jobs have a unique executable: want a mix", unique, len(staged))
	}
}

func TestProfilerOverhead(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Span 4 s, profiled in [1,2) and [3,4): 2 s on, 2 s off.
	p := &profiler{span: 4 * time.Second, begin: t0, windows: []interval{{at(1000), at(2000)}, {at(3000), at(4000)}}}
	var outs []jobOutcome
	for _, ms := range []int{100, 200, 900, 2500, 2600, 2700, 1500, 3500, 4500, -5} {
		outs = append(outs, jobOutcome{info: condorg.JobInfo{FinishedAt: at(ms)}})
	}
	// Off: 100, 200, 900, 2500, 2600, 2700 = 3/s; on: 1500, 3500 = 1/s;
	// 4500 and -5 fall outside the span.
	if got := p.overhead(outs); got != 3 {
		t.Fatalf("overhead = %v, want 3", got)
	}
}

func TestLatencyIsTimedFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	samples := []sample{
		{kind: opQuery, due: due, start: due.Add(40 * time.Millisecond), end: due.Add(50 * time.Millisecond)},
		{kind: opSubmit, due: due, start: due, end: due.Add(time.Millisecond)},
	}
	if got := opLatencies(samples, opQuery); len(got) != 1 || got[0] != 50 {
		t.Fatalf("query latency %v, want [50] ms from due, not 10 from start", got)
	}
}

func TestFrameCounterPerVerb(t *testing.T) {
	frames := newFrameCounter()
	var counting, local atomic.Bool
	hook := delayHook(frames, &counting, &local, spoolWAN)
	hook("gass.read") // counting off: not counted
	counting.Store(true)
	local.Store(true)
	if got := hook("gass.write"); got != 0 {
		t.Fatalf("local delay(gass.write) = %v, want 0", got)
	}
	local.Store(false)
	for _, verb := range []string{"gass.read", "gass.read", "gass.write", "gram.submit"} {
		want := time.Duration(0)
		if verb == "gass.read" {
			want = wanDelay
		}
		if got := hook(verb); got != want {
			t.Fatalf("delay(%s) = %v, want %v", verb, got, want)
		}
	}
	for verb, want := range map[string]int64{"gass.read": 2, "gass.write": 2, "gram.submit": 1, "jm.status": 0} {
		if got := frames.get(verb); got != want {
			t.Fatalf("frames[%s] = %d, want %d", verb, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field<<3))
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field<<3|2))
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func TestProfileAttribution(t *testing.T) {
	strs := []string{"", "condorg/internal/wire.(*Server).dispatch", "encoding/json.Marshal", "condorg/internal/journal.(*Journal).flush", "syscall.Syscall"}
	var p pb
	for i := range strs[1:] {
		fn := pb(nil).varint(1, uint64(i+1)).varint(2, uint64(i+1))
		p = p.bytes(5, fn) // Function{id, name}
		loc := pb(nil).varint(1, uint64(10+i)).bytes(4, pb(nil).varint(1, uint64(i+1)))
		p = p.bytes(4, loc) // Location{id, Line{function_id}}
	}
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// json.Marshal called from wire.dispatch: 3 samples (packed fields).
	p = p.bytes(2, pb(nil).bytes(1, packed(11, 10)).bytes(2, packed(3, 30)))
	// journal flush in a syscall: 1 sample (unpacked fields).
	p = p.bytes(2, pb(nil).varint(1, 13).varint(1, 12).varint(2, 1).varint(2, 10))
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	samples, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].weight != 3 || !reflect.DeepEqual(samples[0].funcs, []string{strs[2], strs[1]}) {
		t.Fatalf("decoded %+v", samples)
	}
	got := cpuShares(samples)
	want := map[string]float64{"wire": 0.75, "encoding_json": 0.75, "journal": 0.25, "syscall": 0.25, "condorg": 0, "gram": 0}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("cpu_share.%s = %v, want %v (all: %v)", name, got[name], w, got)
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"condorg/internal/gram.(*Site).submit.func1": "condorg/internal/gram",
		"encoding/json.(*encodeState).marshal":       "encoding/json",
		"syscall.Syscall6":                           "syscall",
		"runtime.mallocgc":                           "runtime",
	} {
		if got := packageOf(fn); got != want {
			t.Fatalf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTraceTilesTurnaround(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var tl obs.Timeline
	for _, ev := range []struct {
		ms    int
		phase string
	}{{1, obs.PhaseSubmit}, {3, obs.PhaseDispatch}, {10, obs.PhaseStage}, {12, obs.PhaseDispatch}, {20, obs.PhaseGridSubmit}, {30, obs.PhaseCommit}, {40, obs.PhaseActive}} {
		tl.Append(at(ev.ms), ev.phase, "site", "", "")
	}
	phases, ok := tileTrace(tl, t0, at(31), at(131), at(140))
	if !ok {
		t.Fatal("single-incarnation timeline not tiled")
	}
	if want := []float64{3, 7, 2, 18, 1, 9}; !reflect.DeepEqual(phases, want) {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	tl.Append(at(150), obs.PhaseDispatch, "site", "", "") // a resubmission
	if _, ok := tileTrace(tl, t0, at(31), at(131), at(140)); ok {
		t.Fatal("a three-dispatch timeline must not be tiled")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestCompareRefusesMixedHosts(t *testing.T) {
	h := hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", Kernel: "6.1", CPUModel: "Xeon", FsyncMS: 1}
	other := h
	other.FsyncMS, other.StealShare = 3, 0.1 // run-to-run noise, same host
	a, b := []record{{Host: h}}, []record{{Host: other}}
	if err := sameHost(a, b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	other.CPUModel = "EPYC"
	if err := sameHost(a, []record{{Host: h}, {Host: other}}); err == nil {
		t.Fatal("records from two CPU models compared")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "x", Better: "lower", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if v := verdict(a, faster, lower); v != "better" {
		t.Fatalf("20%% faster: %s", v)
	}
	if v := verdict(a, slower, lower); v != "worse" {
		t.Fatalf("20%% slower past a 10%% bound: %s", v)
	}
	if v := verdict(a, a, lower); v != "unresolved" {
		t.Fatalf("identical sets: %s", v)
	}
}
