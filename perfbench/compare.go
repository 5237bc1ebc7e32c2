package main

// The compare step: read two result sets (JSON lines written with --out),
// and per workload print every end-to-end metric's median and quartiles
// with a verdict under the benchmark's bounds, then the per-layer metrics
// that moved by more than their own spread. It refuses sets whose host
// fingerprints differ.
//
//	perfbench compare [-spec BENCHMARK.json] parent.jsonl change.jsonl

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the compare step reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	var sp spec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: read spec:", err)
		return 1
	}
	sets := make([][]record, 2)
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
	}
	if err := sameHost(sets[0], sets[1]); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	compare(os.Stdout, sp, sets[0], sets[1])
	return 0
}

// hostKey is the part of a fingerprint that names the machine and the
// toolchain. The fsync cost and the steal share vary from run to run on
// one host and are not part of it.
func hostKey(h hostInfo) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%s cpu=%q", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.CPUModel)
}

// sameHost refuses two result sets unless every record in them ran on one
// host, so numbers from different machines are never compared.
func sameHost(a, b []record) error {
	seen := make(map[string]bool)
	var keys []string
	for _, set := range [][]record{a, b} {
		for _, r := range set {
			if k := hostKey(r.Host); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if len(keys) > 1 {
		return fmt.Errorf("the records come from %d different hosts: %q", len(keys), keys)
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles are the three cut points of statistics.quantiles(xs, n=4),
// Python's default "exclusive" method, so figures match a Python analysis
// of the same runs.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q
}

// values collects metric name across records of one workload and trace
// mode, in seed order so the two sets pair run by run.
func values(recs []record, workload string, trace int, name string) []float64 {
	sorted := append([]record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seed < sorted[j].Seed })
	var out []float64
	for _, r := range sorted {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges change B against parent A for one end-to-end metric: worse
// when B's median is worse by more than the bound; better when it is
// better by more than either side's quartile spread and B wins at least
// nine tenths of the run pairs; otherwise unresolved.
func verdict(a, b []float64, m specMetric) string {
	qa, qb := quartiles(a), quartiles(b)
	sign := 1.0 // positive gain = better
	if m.Better == "lower" {
		sign = -1
	}
	gain := sign * (qb[1] - qa[1]) / math.Abs(qa[1])
	spread := math.Max((qa[2]-qa[0])/math.Abs(qa[1]), (qb[2]-qb[0])/math.Abs(qb[1]))
	if gain < -m.Bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	if gain > spread && pairs > 0 && wins*10 >= pairs*9 {
		return "better"
	}
	return "unresolved"
}

func compare(w io.Writer, sp spec, a, b []record) {
	var names []string
	seen := map[string]bool{}
	for _, r := range append(append([]record(nil), a...), b...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		fmt.Fprintf(w, "== %s\n", wl)
		fmt.Fprintf(w, "%-22s %12s %12s %12s   %12s %12s %12s   %s\n", "end-to-end", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "verdict")
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl, 0, m.Name), values(b, wl, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(w, "%-22s %12.4g %12.4g %12.4g   %12.4g %12.4g %12.4g   %s (n=%d/%d, bound %.0f%%)\n",
				m.Name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], verdict(va, vb, m), len(va), len(vb), 100*m.Bound)
		}
		var moved []string
		for _, m := range sp.PerLayer {
			va, vb := values(a, wl, 1, m.Name), values(b, wl, 1, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			if math.Abs(qb[1]-qa[1]) > math.Max(qa[2]-qa[0], qb[2]-qb[0]) {
				moved = append(moved, fmt.Sprintf("  %-40s %12.4g -> %12.4g %s", m.Name, qa[1], qb[1], m.Unit))
			}
		}
		if len(moved) > 0 {
			fmt.Fprintln(w, "per-layer metrics that moved by more than their spread:")
			for _, line := range moved {
				fmt.Fprintln(w, line)
			}
		}
	}
}
