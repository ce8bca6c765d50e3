package pmcd

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// The behaviour contract: a fixed list of pmcd jobs (one-cell sweeps,
// litmus explorations, seeded fuzz campaigns) run through Run, whose exact
// metrics — sim-cycles, checksums, flit-hops, service latencies, explored
// states, campaign tallies — are pinned in BENCH_baseline.json. Every
// metric is a deterministic property of the seeded computation, identical
// on every machine and worker count, so any drift, in either direction, is
// a semantic change. Refresh the file deliberately with
//
//	go test ./internal/pmcd -run TestBehaviourContract -update-baseline
//
// Host time is measured by the benchmark/ module, not here.

var updateBaseline = flag.Bool("update-baseline", false, "rewrite BENCH_baseline.json from the behaviour contract's fresh metrics")

const (
	baselinePath = "../../BENCH_baseline.json"
	// baselineSchema versions the file layout; a file of another schema
	// does not load.
	baselineSchema = 2
	refreshHint    = "go test ./internal/pmcd -run TestBehaviourContract -update-baseline"
)

// contractEntry is one named job of the contract. A sweep job names
// exactly one cell.
type contractEntry struct {
	name string
	job  JobSpec
}

// metric is one exact quantity of an entry.
type metric struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// measurement is the metrics of one entry.
type measurement struct {
	Name    string   `json:"name"`
	Metrics []metric `json:"metrics"`
}

// baseline is the BENCH_baseline.json payload.
type baseline struct {
	Schema  int           `json:"schema"`
	Entries []measurement `json:"entries"`
}

// simE is a one-cell sweep job: app on backend at tiles on topo ("" =
// ring), at CI app size.
func simE(name, app, backend string, tiles int, topo string) contractEntry {
	var topos []string
	if topo != "" {
		topos = []string{topo}
	}
	return contractEntry{name, JobSpec{Sweep: &SweepJob{
		Apps: []string{app}, Backends: []string{backend}, Tiles: []int{tiles}, Topos: topos, Small: true,
	}}}
}

func lit(name, prog string) contractEntry {
	return contractEntry{name, JobSpec{Litmus: &LitmusJob{Prog: prog}}}
}

func litSym(name, prog string) contractEntry {
	return contractEntry{name, JobSpec{Litmus: &LitmusJob{Prog: prog, Symmetry: true}}}
}

func fuzzE(name string, seed int64, n int, mode string, backends []string, runs int) contractEntry {
	return contractEntry{name, JobSpec{Fuzz: &FuzzJob{Seed: seed, N: n, Mode: mode, Backends: backends, Runs: runs}}}
}

// contractEntries crosses every layer: the three SPLASH substitutes and
// the structured workloads at CI app sizes across the backends, the
// litmus explorer on cataloged programs, and seeded fuzz campaigns. A
// job's identity excludes the worker count, so each litmus job has one
// entry: the "memo" entry is also the parallel one, and worker-count
// independence and agreement with plain tree enumeration are tested in
// internal/litmus.
func contractEntries() []contractEntry {
	var es []contractEntry
	// Sim: the Fig. 8 SPLASH substitutes on the coherence backends, the
	// Fig. 9 FIFO on DSM under both topologies, and the Fig. 10 motion
	// estimator on scratch-pad staging — all at CI app sizes, 8 tiles.
	for _, app := range []string{"radiosity", "raytrace", "volrend"} {
		for _, b := range []string{"nocc", "swcc"} {
			es = append(es, simE("sim/"+app+"/"+b+"/8t", app, b, 8, ""))
		}
	}
	es = append(es,
		simE("sim/raytrace/dsm/8t", "raytrace", "dsm", 8, ""),
		simE("sim/mfifo/dsm/8t/ring", "mfifo", "dsm", 8, "ring"),
		simE("sim/mfifo/dsm/8t/mesh", "mfifo", "dsm", 8, "mesh"),
		simE("sim/motionest/spm/8t", "motionest", "spm", 8, ""),
		simE("sim/msgpass/swcc/4t", "msgpass", "swcc", 4, ""),
	)
	// Bulk ablation: the word-granular (API v1) and block-granular (API
	// v2) bulkcopy twins on every backend — the exact sim-cycles pin both
	// sides of the word-vs-block comparison.
	for _, b := range []string{"nocc", "swcc", "dsm", "spm"} {
		es = append(es,
			simE("sim/bulkcopy-word/"+b+"/8t", "bulkcopy-word", b, 8, ""),
			simE("sim/bulkcopy/"+b+"/8t", "bulkcopy", b, 8, ""),
		)
	}
	// Clustered platform: the hierarchical topology at 64 tiles, pinning
	// the cluster-aware backends against flat dsm on the same shape.
	for _, b := range []string{"dsm", "cdsm", "cspm"} {
		es = append(es, simE("sim/radiosity/"+b+"/64t/c8xring", "radiosity", b, 64, "cluster:8xring"))
	}
	es = append(es, simE("sim/mfifo/cdsm/16t/c4xmesh", "mfifo", "cdsm", 16, "cluster:4xmesh"))
	// Litmus: sb-drf, the annotated Fig. 5 program, and the
	// state-collapse stress program that plain tree enumeration cannot
	// finish.
	es = append(es,
		lit("litmus/sb-drf/memo", "sb-drf"),
		lit("litmus/fig5-annotated/memo", "fig5-annotated"),
		lit("litmus/stress-independent/par", "stress-independent"),
	)
	// Symmetry reduction on the iriw-class programs: states is the exact
	// orbit-collapsed count, outcomes/paths gate that the reduction stays
	// semantics-preserving.
	es = append(es,
		lit("litmus/iriw-sym3/memo", "iriw-sym3"),
		litSym("litmus/iriw-sym3/sym", "iriw-sym3"),
		litSym("litmus/iriw/sym", "iriw"),
	)
	// Adaptive routing: the migrating backend on a migratory app and a
	// streaming app — the sim-cycles pin both the policy's decisions and
	// the migration mechanics.
	es = append(es,
		simE("sim/raytrace/adaptive/8t", "raytrace", "adaptive", 8, ""),
		simE("sim/bulkcopy/adaptive/8t", "bulkcopy", "adaptive", 8, ""),
	)
	// Fuzz: a short seeded differential campaign over all four backends,
	// and one with per-object placement (the "mixed" pseudo-backend).
	es = append(es, fuzzE("fuzz/mixed/seed1/n50", 1, 50, "mixed", nil, 2))
	es = append(es, fuzzE("fuzz/placed/seed2/n50", 2, 50, "drf", []string{"nocc", "mixed"}, 2))
	// Open-loop services: their exact metrics include requests and
	// p50/p99 simulated latency, so any tail-latency drift fails the
	// contract.
	es = append(es,
		simE("sim/server/nocc/8t", "server", "nocc", 8, ""),
		simE("sim/server/dsm/8t", "server", "dsm", 8, ""),
		simE("sim/server/adaptive/8t", "server", "adaptive", 8, ""),
		simE("sim/kvstore/dsm/8t", "kvstore", "dsm", 8, ""),
		simE("sim/kvstore/cdsm/16t/c4xring", "kvstore", "cdsm", 16, "cluster:4xring"),
		simE("sim/stream/dsm/8t", "stream", "dsm", 8, ""),
	)
	return es
}

// checkEntries validates an entry list before anything runs: names are
// unique, every job normalizes, and every sweep job is one cell, so a bad
// app or topology fails at once, not partway through the contract.
func checkEntries(es []contractEntry) error {
	if len(es) == 0 {
		return fmt.Errorf("no entries")
	}
	seen := make(map[string]bool, len(es))
	for i, e := range es {
		if e.name == "" {
			return fmt.Errorf("entry %d has no name", i)
		}
		if seen[e.name] {
			return fmt.Errorf("duplicate entry %q", e.name)
		}
		seen[e.name] = true
		n, err := e.job.Normalize()
		if err != nil {
			return fmt.Errorf("entry %q: %w", e.name, err)
		}
		if j := n.Sweep; j != nil && len(j.Apps)*len(j.Backends)*len(j.Tiles)*len(j.Topos) != 1 {
			return fmt.Errorf("entry %q is a sweep of more than one cell", e.name)
		}
	}
	return nil
}

// runEntry executes one job once and returns its exact metrics.
func runEntry(job JobSpec) ([]metric, error) {
	res, err := Run(job, nil)
	if err != nil {
		return nil, err
	}
	switch {
	case res.Sweep != nil:
		if n := len(res.Sweep.Rows); n != 1 {
			return nil, fmt.Errorf("sweep of %d cells, want 1", n)
		}
		row := res.Sweep.Rows[0]
		ms := []metric{
			{"sim-cycles", row.Cycles},
			{"flit-hops", row.FlitHops},
			{"checksum", uint64(row.Checksum)},
		}
		// Service workloads also pin their request count and p50/p99
		// latency: a scheduling or protocol change reaching request
		// timing fails the contract just like a sim-cycles drift.
		if row.Result.Service != nil {
			ms = append(ms,
				metric{"requests", row.Requests},
				metric{"p50-latency", row.P50Latency},
				metric{"p99-latency", row.P99Latency},
			)
		}
		return ms, nil
	case res.Litmus != nil:
		v := res.Litmus
		paths := 0
		for _, o := range v.Outcomes {
			paths += o.Executions
		}
		return []metric{
			{"states", uint64(v.States)},
			{"outcomes", uint64(len(v.Outcomes))},
			{"paths", uint64(paths)},
			{"stuck", uint64(v.Stuck)},
		}, nil
	default:
		v := res.Fuzz
		return []metric{
			{"unique-programs", uint64(v.Unique)},
			{"checked-pairs", uint64(v.Checked)},
			{"violations", uint64(len(v.Violations))},
		}, nil
	}
}

// parseBaseline decodes a baseline file. Entry names, and metric names
// within an entry, must be unique: diffBaseline matches by name, so a
// repeat would be silently ignored.
func parseBaseline(data []byte) (*baseline, error) {
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if b.Schema != baselineSchema {
		return nil, fmt.Errorf("schema %d, want %d", b.Schema, baselineSchema)
	}
	entries := make(map[string]bool, len(b.Entries))
	for _, e := range b.Entries {
		if entries[e.Name] {
			return nil, fmt.Errorf("duplicate entry %q", e.Name)
		}
		entries[e.Name] = true
		metrics := make(map[string]bool, len(e.Metrics))
		for _, m := range e.Metrics {
			if metrics[m.Name] {
				return nil, fmt.Errorf("entry %q: duplicate metric %q", e.Name, m.Name)
			}
			metrics[m.Name] = true
		}
	}
	return &b, nil
}

// encode renders the baseline as the committed file's bytes (indented,
// trailing newline).
func (b *baseline) encode() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// diffBaseline lists every difference between the baseline's entries and
// fresh ones, one line each: a changed value, an entry or metric the
// fresh run lacks, and one the baseline lacks. Values are exact, so a
// change in either direction counts.
func diffBaseline(base, fresh []measurement) []string {
	index := func(ms []measurement) map[string]map[string]uint64 {
		out := make(map[string]map[string]uint64, len(ms))
		for _, m := range ms {
			vals := make(map[string]uint64, len(m.Metrics))
			for _, v := range m.Metrics {
				vals[v.Name] = v.Value
			}
			out[m.Name] = vals
		}
		return out
	}
	oldIdx, newIdx := index(base), index(fresh)
	var diffs []string
	for _, e := range base {
		now, ok := newIdx[e.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: in the baseline, not measured", e.Name))
			continue
		}
		for _, m := range e.Metrics {
			v, ok := now[m.Name]
			switch {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("%s %s: baseline %d, not measured", e.Name, m.Name, m.Value))
			case v != m.Value:
				diffs = append(diffs, fmt.Sprintf("%s %s: baseline %d, now %d", e.Name, m.Name, m.Value, v))
			}
		}
	}
	for _, e := range fresh {
		was, ok := oldIdx[e.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: not in the baseline", e.Name))
			continue
		}
		for _, m := range e.Metrics {
			if _, ok := was[m.Name]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s %s: not in the baseline, now %d", e.Name, m.Name, m.Value))
			}
		}
	}
	return diffs
}

// TestBehaviourContract runs every entry twice — the two runs' metrics
// must agree — and compares them with BENCH_baseline.json exactly. Each
// entry is a subtest, so -run 'TestBehaviourContract/sim/radiosity' runs
// a subset; -update-baseline needs them all.
func TestBehaviourContract(t *testing.T) {
	entries := contractEntries()
	if err := checkEntries(entries); err != nil {
		t.Fatal(err)
	}
	var base *baseline
	if !*updateBaseline {
		data, err := os.ReadFile(baselinePath)
		if err == nil {
			base, err = parseBaseline(data)
		}
		if err != nil {
			t.Fatalf("%s: %v", baselinePath, err)
		}
	}
	measured := map[string]bool{}
	var fresh []measurement
	for _, e := range entries {
		measured[e.name] = false
		t.Run(e.name, func(t *testing.T) {
			first, err := runEntry(e.job)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runEntry(e.job)
			if err != nil {
				t.Fatal(err)
			}
			a := []measurement{{e.name, first}}
			if d := diffBaseline(a, []measurement{{e.name, second}}); d != nil {
				t.Fatalf("the second run disagrees with the first (shown as baseline):\n%s", strings.Join(d, "\n"))
			}
			fresh = append(fresh, a[0])
			measured[e.name] = true
		})
	}
	if *updateBaseline {
		if len(fresh) != len(entries) {
			t.Fatalf("-update-baseline measured %d of %d entries; run every entry", len(fresh), len(entries))
		}
		data, err := (&baseline{Schema: baselineSchema, Entries: fresh}).encode()
		if err == nil {
			err = os.WriteFile(baselinePath, data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten (%d entries)", baselinePath, len(fresh))
		return
	}
	// Entries a -run filter skipped, or whose run failed, are left out of
	// the comparison; baseline entries the contract no longer lists stay.
	var want []measurement
	for _, e := range base.Entries {
		if ran, listed := measured[e.Name]; ran || !listed {
			want = append(want, e)
		}
	}
	if d := diffBaseline(want, fresh); d != nil {
		t.Errorf("behaviour drifted from %s; if intended, refresh with: %s\n%s",
			baselinePath, refreshHint, strings.Join(d, "\n"))
	}
}

// TestContractEntriesValid checks the contract's entry list without
// running it.
func TestContractEntriesValid(t *testing.T) {
	if err := checkEntries(contractEntries()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckEntries: each malformed entry list is refused, naming the
// fault.
func TestCheckEntries(t *testing.T) {
	cases := []struct {
		name    string
		entries []contractEntry
		want    string
	}{
		{"empty", nil, "no entries"},
		{"unnamed", []contractEntry{lit("", "sb-drf")}, "no name"},
		{"duplicate", []contractEntry{lit("a", "sb-drf"), lit("a", "sb-drf")}, `duplicate entry "a"`},
		{"bad-topology", []contractEntry{simE("b", "radiosity", "dsm", 8, "hypercube")}, "hypercube"},
		// The metrics of a sweep entry are its one row's; a job that
		// expands to more cells (here: every backend) is refused.
		{"multi-cell-sweep", []contractEntry{{"g", JobSpec{Sweep: &SweepJob{
			Apps: []string{"radiosity"}, Tiles: []int{8}, Small: true,
		}}}}, "more than one cell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkEntries(tc.entries); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestServiceEntriesLatencyGated: a service entry emits its request
// count and p50/p99 latency as metrics, a kernel entry emits no latency,
// and the contract lists service entries.
func TestServiceEntriesLatencyGated(t *testing.T) {
	ms, err := runEntry(simE("e", "server", "dsm", 8, "").job)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, m := range ms {
		got[m.Name] = m.Value
	}
	for _, name := range []string{"requests", "p50-latency", "p99-latency"} {
		if got[name] == 0 {
			t.Errorf("service entry metric %s = %d, want positive (have %v)", name, got[name], ms)
		}
	}
	if got["p50-latency"] > got["p99-latency"] {
		t.Errorf("p50 %d > p99 %d", got["p50-latency"], got["p99-latency"])
	}
	kernel, err := runEntry(simE("k", "radiosity", "nocc", 4, "").job)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range kernel {
		if m.Name == "p50-latency" {
			t.Error("kernel entry emits latency metrics")
		}
	}
	n := 0
	for _, e := range contractEntries() {
		if j := e.job.Sweep; j != nil && (j.Apps[0] == "server" || j.Apps[0] == "kvstore" || j.Apps[0] == "stream") {
			n++
		}
	}
	if n == 0 {
		t.Error("the contract has no latency-gated service entries")
	}
}

// TestDiffBaseline shows the comparison can fail: each edit of a baseline
// that matches the fresh metrics either yields the listed differences or,
// for a malformed file, must not load.
func TestDiffBaseline(t *testing.T) {
	fresh := []measurement{
		{"a", []metric{{"sim-cycles", 42}, {"checksum", 7}}},
		{"b", []metric{{"states", 1001}}},
	}
	cases := []struct {
		name    string
		edit    func(b *baseline)
		want    []string
		loadErr string
	}{
		{"unchanged", func(*baseline) {}, nil, ""},
		{"raised-value", func(b *baseline) { b.Entries[0].Metrics[0].Value = 30 },
			[]string{"a sim-cycles: baseline 30, now 42"}, ""},
		{"lowered-value", func(b *baseline) { b.Entries[0].Metrics[0].Value = 50 },
			[]string{"a sim-cycles: baseline 50, now 42"}, ""},
		{"drift-by-one", func(b *baseline) { b.Entries[1].Metrics[0].Value = 1000 },
			[]string{"b states: baseline 1000, now 1001"}, ""},
		{"missing-entry", func(b *baseline) {
			b.Entries = append(b.Entries, measurement{"c", []metric{{"states", 1}}})
		}, []string{"c: in the baseline, not measured"}, ""},
		{"missing-metric", func(b *baseline) {
			b.Entries[1].Metrics = append(b.Entries[1].Metrics, metric{"paths", 5})
		}, []string{"b paths: baseline 5, not measured"}, ""},
		{"extra-entry", func(b *baseline) { b.Entries = b.Entries[:1] },
			[]string{"b: not in the baseline"}, ""},
		{"extra-metric", func(b *baseline) { b.Entries[0].Metrics = b.Entries[0].Metrics[:1] },
			[]string{"a checksum: not in the baseline, now 7"}, ""},
		{"duplicate-entry", func(b *baseline) {
			b.Entries = append(b.Entries, measurement{"a", []metric{{"sim-cycles", 12345}}})
		}, nil, `duplicate entry "a"`},
		{"duplicate-metric", func(b *baseline) {
			b.Entries[1].Metrics = append(b.Entries[1].Metrics, metric{"states", 4})
		}, nil, `duplicate metric "states"`},
		{"wrong-schema", func(b *baseline) { b.Schema = 1 }, nil, "schema 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &baseline{Schema: baselineSchema}
			for _, m := range fresh {
				b.Entries = append(b.Entries, measurement{m.Name, append([]metric(nil), m.Metrics...)})
			}
			tc.edit(b)
			data, err := b.encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := parseBaseline(data)
			if tc.loadErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.loadErr) {
					t.Fatalf("load error = %v, want %q", err, tc.loadErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			d := diffBaseline(got.Entries, fresh)
			if strings.Join(d, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("diff = %q, want %q", d, tc.want)
			}
		})
	}
}

// TestBaselineRoundTrip: the committed file re-encodes to its own bytes,
// so -update-baseline on unchanged behaviour leaves it untouched.
func TestBaselineRoundTrip(t *testing.T) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("%s does not re-encode to its own bytes; refresh with: %s", baselinePath, refreshHint)
	}
}
