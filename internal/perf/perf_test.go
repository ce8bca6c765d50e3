package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSuites: every builtin suite validates and names entries uniquely.
func TestSuites(t *testing.T) {
	names := Suites()
	if len(names) == 0 {
		t.Fatal("no builtin suites")
	}
	for _, name := range names {
		spec, err := Suite(name)
		if err != nil {
			t.Fatalf("Suite(%q): %v", name, err)
		}
		if err := spec.validate(); err != nil {
			t.Errorf("suite %s: %v", name, err)
		}
	}
	if _, err := Suite("nope"); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (&Spec{}).validate(); err == nil {
		t.Error("empty suite accepted")
	}
	neg := Spec{Reps: -3, Entries: []Entry{{Name: "a", Litmus: &LitmusBench{Prog: "sb-drf"}}}}
	if err := neg.validate(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative reps: got %v", err)
	}
	dup := Spec{Entries: []Entry{
		{Name: "a", Litmus: &LitmusBench{Prog: "sb-drf"}},
		{Name: "a", Litmus: &LitmusBench{Prog: "sb-drf"}},
	}}
	if err := dup.validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: got %v", err)
	}
	both := Spec{Entries: []Entry{{
		Name:   "b",
		Litmus: &LitmusBench{Prog: "sb-drf"},
		Fuzz:   &FuzzBench{Seed: 1, N: 1, Mode: "drf"},
	}}}
	if err := both.validate(); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("two kinds: got %v", err)
	}
}

// baselinePath is the committed ci-suite baseline.
const baselinePath = "../../BENCH_baseline.json"

// TestBenchRunDeterministic: two full runs of the ci suite produce
// identical exact metrics — sim-cycles, checksums, states, campaign
// tallies — for every entry. (Within one run, measure() already asserts
// rep-to-rep agreement; this asserts run-to-run agreement, the property
// the CI gate's exact comparison against a committed baseline relies on.)
func TestBenchRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full ci suite twice")
	}
	spec, err := Suite("ci")
	if err != nil {
		t.Fatal(err)
	}
	spec.Reps = 1
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(spec.Entries) || len(b.Entries) != len(spec.Entries) {
		t.Fatalf("entry counts: %d, %d, want %d", len(a.Entries), len(b.Entries), len(spec.Entries))
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if ea.Name != eb.Name {
			t.Fatalf("entry order diverged: %s vs %s", ea.Name, eb.Name)
		}
		if len(ea.Metrics) == 0 {
			t.Errorf("%s: no exact metrics", ea.Name)
		}
		for _, ma := range ea.Metrics {
			mb := eb.Metric(ma.Name)
			if mb == nil {
				t.Errorf("%s: metric %s missing from second run", ea.Name, ma.Name)
				continue
			}
			if ma.Value != mb.Value {
				t.Errorf("%s: %s = %v vs %v across runs", ea.Name, ma.Name, ma.Value, mb.Value)
			}
		}
	}
	// The two reports must also compare clean under the exact gate, and
	// against the committed baseline — the gate the CI bench job applies.
	cmp, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Ok() {
		t.Errorf("self-comparison gated:\n%s", cmp)
	}
	base, err := LoadReport(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if cmp, err = Compare(base, a); err != nil {
		t.Fatal(err)
	} else if !cmp.Ok() {
		t.Errorf("ci suite drifted from %s:\n%s", baselinePath, cmp)
	}
}

// TestServiceEntriesLatencyGated: service-workload entries must emit the
// tail-latency metrics as exact (gated), kernels must not, and both
// builtin suites must contain latency-gated entries.
func TestServiceEntriesLatencyGated(t *testing.T) {
	ms, err := runEntry(simE("e", "server", "dsm", 8, "", true))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Metric{}
	for _, m := range ms {
		got[m.Name] = m
	}
	for _, name := range []string{"requests", "p50-latency", "p99-latency"} {
		m, ok := got[name]
		if !ok {
			t.Fatalf("service entry missing metric %s (have %v)", name, ms)
		}
		if m.Value <= 0 {
			t.Errorf("metric %s = %v, want positive", name, m.Value)
		}
	}
	if got["p50-latency"].Value > got["p99-latency"].Value {
		t.Errorf("p50 %v > p99 %v", got["p50-latency"].Value, got["p99-latency"].Value)
	}
	kernel, err := runEntry(simE("k", "radiosity", "nocc", 4, "", true))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range kernel {
		if m.Name == "p50-latency" {
			t.Error("kernel entry emits latency metrics")
		}
	}
	for _, suite := range []string{"ci", "full"} {
		spec, err := Suite(suite)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range spec.Entries {
			if e.Sim != nil && (e.Sim.App == "server" || e.Sim.App == "kvstore" || e.Sim.App == "stream") {
				n++
			}
		}
		if n == 0 {
			t.Errorf("suite %s has no latency-gated service entries", suite)
		}
	}
}

// report builds a one-entry report for the Compare table test.
func report(metrics ...Metric) *Report {
	return &Report{
		Schema:  Schema,
		Suite:   "t",
		Entries: []Measurement{{Name: "e", Metrics: metrics}},
	}
}

func TestCompareClassification(t *testing.T) {
	cases := []struct {
		name     string
		old, new Metric
		class    string
		gates    bool
	}{
		{"exact-unchanged", Metric{Name: "sim-cycles", Value: 42}, Metric{Name: "sim-cycles", Value: 42}, ClassUnchanged, false},
		{"exact-lower-gates", Metric{Name: "sim-cycles", Value: 42}, Metric{Name: "sim-cycles", Value: 41}, ClassImproved, true},
		{"exact-higher-gates", Metric{Name: "sim-cycles", Value: 42}, Metric{Name: "sim-cycles", Value: 43}, ClassRegressed, true},
		{"exact-tiny-drift-gates", Metric{Name: "states", Value: 1000}, Metric{Name: "states", Value: 1001}, ClassRegressed, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmp, err := Compare(report(tc.old), report(tc.new))
			if err != nil {
				t.Fatal(err)
			}
			if len(cmp.Deltas) != 1 {
				t.Fatalf("deltas = %d, want 1", len(cmp.Deltas))
			}
			d := cmp.Deltas[0]
			if d.Class != tc.class {
				t.Errorf("class = %s, want %s", d.Class, tc.class)
			}
			if got := len(cmp.Failures()) > 0; got != tc.gates {
				t.Errorf("gates = %v, want %v", got, tc.gates)
			}
			if cmp.Ok() == tc.gates {
				t.Errorf("Ok() = %v with gates = %v", cmp.Ok(), tc.gates)
			}
		})
	}
}

func TestCompareMissingAndAdded(t *testing.T) {
	base := report(
		Metric{Name: "states", Value: 100},
		Metric{Name: "sim-cycles", Value: 42},
	)
	cand := report(
		Metric{Name: "states", Value: 100},
		Metric{Name: "paths", Value: 5},
	)
	cmp, err := Compare(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	var classes []string
	for _, d := range cmp.Deltas {
		classes = append(classes, d.Metric+":"+d.Class)
	}
	want := []string{"states:unchanged", "sim-cycles:missing", "paths:added"}
	if strings.Join(classes, " ") != strings.Join(want, " ") {
		t.Errorf("deltas = %v, want %v", classes, want)
	}
	if cmp.Ok() {
		t.Error("missing metric did not gate")
	}
	if !strings.Contains(cmp.String(), "MISSING   e sim-cycles") {
		t.Errorf("report does not name the missing metric:\n%s", cmp)
	}

	// A whole entry missing from the candidate gates; a new entry in the
	// candidate does not.
	extra := &Report{Schema: Schema, Entries: []Measurement{
		{Name: "e", Metrics: []Metric{{Name: "states", Value: 100}}},
		{Name: "extra", Metrics: []Metric{{Name: "states", Value: 1}}},
	}}
	cmp, err = Compare(report(Metric{Name: "states", Value: 100}), extra)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Ok() {
		t.Errorf("added entry gated:\n%s", cmp)
	}
	cmp, err = Compare(extra, report(Metric{Name: "states", Value: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ok() {
		t.Error("missing entry did not gate")
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	a := report(Metric{Name: "states", Value: 1})
	b := report(Metric{Name: "states", Value: 1})
	b.Schema = Schema + 1
	if _, err := Compare(a, b); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch: got %v", err)
	}
}

// TestReportRoundTrip: WriteJSON output reloads to an equal report, and a
// report without a schema version is rejected.
func TestReportRoundTrip(t *testing.T) {
	r := report(
		Metric{Name: "states", Value: 123},
		Metric{Name: "sim-cycles", Value: 42},
	)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/bench.json"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("round trip changed the report:\n%s\nvs\n%s", a, b)
	}

	if err := os.WriteFile(path, []byte(`{"suite":"t"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema-less report: got %v", err)
	}
}

// TestLoadReportRejectsDuplicates: Compare matches entries and metrics by
// name, so a report repeating one would have the repeat silently ignored.
// The committed baseline with a second sim/radiosity/nocc/8t whose
// sim-cycles differ, or with a repeated metric, must not load.
func TestLoadReportRejectsDuplicates(t *testing.T) {
	base, err := LoadReport(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	const name = "sim/radiosity/nocc/8t"
	orig := base.Entry(name)
	if orig == nil || orig.Metric("sim-cycles") == nil {
		t.Fatalf("baseline has no %s sim-cycles", name)
	}
	load := func(r *Report) error {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/bench.json"
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadReport(path)
		return err
	}

	dupEntry := *base
	dupEntry.Entries = append([]Measurement(nil), base.Entries...)
	twin := Measurement{Name: name, Metrics: append([]Metric(nil), orig.Metrics...)}
	twin.Metric("sim-cycles").Value += 12345
	dupEntry.Entries = append(dupEntry.Entries, twin)
	if err := load(&dupEntry); err == nil || !strings.Contains(err.Error(), "duplicate entry") {
		t.Errorf("duplicate entry: got %v", err)
	}

	dupMetric := *base
	dupMetric.Entries = append([]Measurement(nil), base.Entries...)
	for i := range dupMetric.Entries {
		if dupMetric.Entries[i].Name == name {
			e := &dupMetric.Entries[i]
			e.Metrics = append(append([]Metric(nil), e.Metrics...), Metric{Name: "sim-cycles", Value: 1})
		}
	}
	if err := load(&dupMetric); err == nil || !strings.Contains(err.Error(), "duplicate metric") {
		t.Errorf("duplicate metric: got %v", err)
	}
}
