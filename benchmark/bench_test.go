package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/pmcd"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100} {
		if got := quantile(d, q); got != want {
			t.Errorf("quantile(1..100 ms, %g) = %g, want %g", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g", got)
	}
}

// The reference values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{[]float64{2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"pmc/internal/sim.(*Kernel).Run", "main.main"}, "sim"},
		{[]string{"runtime.mallocgc", "pmc/internal/cache.(*Cache).Access", "pmc/internal/soc.(*Tile).Read"}, "cache"},
		{[]string{"pmc/internal/rt.(*Runtime).Spawn.func1", "runtime.goexit"}, "rt"},
		{[]string{"encoding/json.Marshal", "pmc/internal/pmcd.(*Server).handleSubmit", "net/http.(*conn).serve"}, "pmcd"},
		{[]string{"pmc/internal/perf.Run"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"}, "go_runtime"},
		{[]string{"internal/runtime/atomic.(*Uint32).CompareAndSwap", "runtime.coroswitch_m", "runtime.mcall"}, "go_runtime"},
		{[]string{"net/http.(*conn).serve", "runtime.goexit"}, "other"},
		{[]string{"main.main", "runtime.main"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestDecodeProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	if _, err := p.stop(); err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with value %d", s.value)
		}
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, ".spin")
		}
	}
	if !found {
		t.Fatalf("no sample of %d names the spinning function", len(samples))
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decoded garbage")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "cell", parent: noSpan, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60}, // overlaps a: the union counts once
		{name: "c", parent: 2, start: 35, end: 45},
	}}
	st := tr.stats()
	if got := st["cell"].self; got != 50 {
		t.Errorf("cell self time = %d, want 50", got)
	}
	if got := st["b"].self; got != 20 {
		t.Errorf("b self time = %d, want 20", got)
	}
	if got := st["a"].total; got != 30 {
		t.Errorf("a total = %d, want 30", got)
	}
}

func TestClassify(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"same runs", base, base, false, 0.1, unchanged},
		{"faster everywhere", base, scale(0.8), false, 0.1, improved},
		{"slower beyond the bound", base, scale(1.2), false, 0.1, regressed},
		{"slower within the bound", base, scale(1.05), false, 0.1, unchanged},
		{"higher is better", base, scale(1.2), true, 0.1, improved},
		{"lower throughput", base, scale(0.8), true, 0.1, regressed},
		{"wins too few pairs", base, []float64{95, 96, 94, 101, 97}, false, 0.1, unchanged},
		{"gain inside the parent's spread", []float64{90, 100, 110, 95, 105}, []float64{89, 99, 109, 94, 104}, false, 0.2, unchanged},
		{"spread wider than the bound", []float64{50, 100, 150, 100, 200}, []float64{60, 110, 140, 90, 210}, false, 0.1, unresolved},
		{"wide spread, every run better", []float64{100, 150, 200, 120, 180}, []float64{10, 15, 20, 12, 18}, false, 0.1, improved},
	} {
		if got := classify(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		m := metrics{}
		for _, d := range spec.EndToEnd {
			m.set(d.Name, 10, d.Unit)
		}
		m.set("ops_per_s", ops, "1/s")
		rf := resultsFile{Identity: identity{Seed: 1}}
		for _, w := range spec.Workloads {
			rf.Workloads = append(rf.Workloads, workloadResults{Workload: w.Name,
				Untraced: &result{Correct: true, Attempted: 1, Metrics: m},
				Traced:   &result{Correct: true, Attempted: 1, Metrics: metrics{"sim.cycles": {Value: 7, Unit: "count"}}},
			})
		}
		b, _ := json.Marshal(rf)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := []string{write("a1", 100), write("a2", 101), write("a3", 99)}
	same := []string{write("s1", 100), write("s2", 100.5), write("s3", 99.5)}
	slow := []string{write("b1", 70), write("b2", 71), write("b3", 69)}
	var out bytes.Buffer
	if bad, err := compare(&out, spec, a, same); err != nil || bad {
		t.Fatalf("identical sides: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	bad, err := compare(&out, spec, a, slow)
	if err != nil || !bad || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("slower side not flagged: bad=%v err=%v\n%s", bad, err, out.String())
	}
}

func TestJobStreamDeterministic(t *testing.T) {
	const n = 20000
	a, b := newJobStream(7, hotJobs), newJobStream(7, hotJobs)
	// b is drained backwards: job i must not depend on the order clients
	// ask for jobs.
	b.at(n - 1)
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a.at(i), b.at(i)) {
			t.Fatalf("job %d differs between two streams of one seed", i)
		}
	}
	c := newJobStream(8, hotJobs)
	same := true
	for i := 0; i < 100 && same; i++ {
		same = reflect.DeepEqual(a.at(i), c.at(i))
	}
	if same {
		t.Error("seeds 7 and 8 give the same stream")
	}

	firstAt := map[string]int{}
	for _, h := range a.hot {
		fp, err := pmcd.Fingerprint(h, pmcdCodeVersion)
		if err != nil {
			t.Fatal(err)
		}
		firstAt[fp] = -1
	}
	if len(firstAt) != hotJobs {
		t.Fatalf("hot set has %d distinct jobs, want %d", len(firstAt), hotJobs)
	}
	count := map[jobClass]int{}
	for i := 0; i < n; i++ {
		j := a.at(i)
		count[j.class]++
		fp, err := pmcd.Fingerprint(j.spec, pmcdCodeVersion)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		pos, seen := firstAt[fp]
		switch j.class {
		case newJob:
			if seen {
				t.Fatalf("new job %d repeats an earlier job", i)
			}
			firstAt[fp] = i
			if f := j.spec.Fuzz; f != nil {
				for _, s := range []int64{f.Seed, f.Seed + 1} {
					if th := len(fuzz.Generate(s, fuzz.GenConfig{Mode: fuzz.ModeMixed}).Threads); th != 2 {
						t.Fatalf("fuzz job %d: program %d has %d threads", i, s, th)
					}
				}
			}
		case oldJob:
			if !seen || pos < 0 || pos > i-oldLag {
				t.Fatalf("old job %d re-submits position %d (seen %v)", i, pos, seen)
			}
		case hotJob:
			if pos != -1 {
				t.Fatalf("hot job %d is not in the hot set", i)
			}
		}
	}
	for class, want := range map[jobClass]float64{hotJob: 0.75, oldJob: 0.15, newJob: 0.10} {
		if got := float64(count[class]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("class %d: share %.3f, want %.2f", class, got, want)
		}
	}
	if got := a.newJobs(n); got != count[newJob] {
		t.Errorf("newJobs(%d) = %d, want %d", n, got, count[newJob])
	}
}

func TestGridsDeterministic(t *testing.T) {
	for _, g := range []grid{flatGrid(false), bigGrid(false)} {
		a, err := newSweepWork(g, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newSweepWork(g, 3, 1)
		c, _ := newSweepWork(g, 4, 1)
		if !reflect.DeepEqual(a.cells, b.cells) {
			t.Fatal("two grids of one seed differ")
		}
		seeds := map[string]uint32{}
		differ := false
		for i, cell := range a.cells {
			x, y, z := a.apps[0][i], b.apps[0][i], c.apps[0][i]
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("%s: apps of one seed differ", cell)
			}
			differ = differ || !reflect.DeepEqual(x, z)
			if s, ok := x.(*workloads.Server); ok {
				if prev, ok := seeds[cell.App]; ok && prev != s.Seed {
					t.Fatalf("%s: backends of one app get different inputs", cell)
				}
				seeds[cell.App] = s.Seed
			}
		}
		if !differ {
			t.Errorf("seeds 3 and 4 give the same %s apps", g.topo)
		}
	}

	a, b, c := newFuzzWork(3, 80), newFuzzWork(3, 80), newFuzzWork(4, 80)
	if len(a.progs) != 80 || a.prefixUnique < exactPrefix || a.prefixGenerated < a.prefixUnique {
		t.Fatalf("%d programs, prefix of %d unique from %d generated", len(a.progs), a.prefixUnique, a.prefixGenerated)
	}
	seen := map[string]bool{}
	for i := range a.progs {
		if a.progs[i].seed != b.progs[i].seed || litmus.Fingerprint(a.progs[i].prog) != litmus.Fingerprint(b.progs[i].prog) {
			t.Fatalf("program %d differs between two campaigns of one seed", i)
		}
		if th := len(a.progs[i].prog.Threads); th != 2+i%2 {
			t.Fatalf("program %d has %d threads; the campaign alternates two and three", i, th)
		}
		if seen[a.progs[i].fp] {
			t.Fatalf("program %d repeats an earlier one", i)
		}
		seen[a.progs[i].fp] = true
	}
	if litmus.Fingerprint(a.progs[0].prog) == litmus.Fingerprint(c.progs[0].prog) {
		t.Error("seeds 3 and 4 start with the same program")
	}
}

// A corrupted checksum must count as a failed cell, both against another
// backend of the same pass and against the first pass.
func TestCorruptedChecksumFails(t *testing.T) {
	w, err := newSweepWork(flatGrid(true), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pass := func() *sweep.Table {
		tab, _, err := w.enginePass()
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	r := &run{m: metrics{}}
	var check sweepCheck
	r.sweepChecked(&check, pass())
	if r.failed != 0 {
		t.Fatalf("clean pass failed: %v", r.problems)
	}
	again := pass()
	again.Rows[1].Checksum ^= 1
	r.sweepChecked(&check, again)
	if r.failed == 0 {
		t.Fatal("a checksum differing from the first pass went unnoticed")
	}

	var fresh sweepCheck
	corrupt := pass()
	corrupt.Rows[0].Checksum ^= 1 // rows 0 and 1 are two backends of one (app, tiles)
	if n, _ := fresh.check(corrupt); n == 0 {
		t.Fatal("a checksum differing between backends went unnoticed")
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if res.Correct || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Fatalf("fail ratio not raised: %+v", res)
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each run is clean and reports exactly the declared metrics.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloadList {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, have)
	}
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := config{workload: w.name, seed: 2, seconds: 0.3, traced: traced, workDir: dir, short: true}
			if traced {
				cfg.traceOut = filepath.Join(dir, "trace.json")
			}
			res, r, err := execute(cfg, spec)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %+v %v", w.name, traced, res, r.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g", w.name, name, v.Value)
					}
				}
				continue
			}
			if v := res.Metrics["trace_overhead"].Value; v <= 0 {
				t.Errorf("%s: trace_overhead %g", w.name, v)
			}
			var shares float64
			for _, l := range cpuLayers {
				shares += res.Metrics["cpu_share."+l].Value
			}
			if shares != 0 && math.Abs(shares-1) > 1e-9 {
				t.Errorf("%s: cpu shares sum to %g", w.name, shares)
			}
			b, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Fatalf("%s: bad Chrome trace (%d events): %v", w.name, len(chrome.TraceEvents), err)
			}
			stores, _ := filepath.Glob(filepath.Join(dir, "pmcd-store-*"))
			if len(stores) != 0 {
				t.Errorf("%s: pmcd stores left behind: %v", w.name, stores)
			}
		}
	}
}

// The end-to-end metrics the workloads produce are the declared ones, in
// the declared units.
func TestSpecUnits(t *testing.T) {
	spec := loadTestSpec(t)
	names := map[string]bool{}
	for _, list := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range list {
			if names[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			names[d.Name] = true
		}
	}
	var exact []string
	for _, n := range exactMetrics {
		if !names[n] {
			exact = append(exact, n)
		}
	}
	sort.Strings(exact)
	if len(exact) > 0 {
		t.Errorf("exact metrics not declared: %v", exact)
	}
	if _, err := spec.complete(metrics{"setup_s": {Value: 1, Unit: "ms"}}, false); err == nil {
		t.Error("a metric in the wrong unit was accepted")
	}
	if _, err := spec.complete(metrics{"nonesuch": {Value: 1, Unit: "s"}}, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}
