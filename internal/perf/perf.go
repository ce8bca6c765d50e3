// Package perf is the repo's exact behaviour contract: a declarative
// suite of pmcd jobs executed across the repo's layers — one-cell sweeps
// (app × backend × tiles × topology), litmus explorations (tree vs
// memoized engines, with and without symmetry reduction) and seeded
// differential fuzz campaigns — whose deterministic results serialize to a
// versioned JSON report that Compare diffs against a committed baseline.
// Every entry runs through pmcd.Run, the runner the job service serves
// from, and its metrics are read off the typed result.
//
// Every metric is exact: sim-cycles, checksums, flit-hops, explored
// states, outcome counts, campaign tallies, service latencies. They are
// deterministic properties of the seeded computation, identical on every
// machine and worker count. Run asserts they agree across repetitions;
// Compare matches them exactly, so any drift — in either direction — is a
// semantic change that must be acknowledged by refreshing the baseline.
// Host time is measured by the benchmark/ module, not here.
//
// The package is exported through pmc.BenchRun / pmc.BenchSpec /
// pmc.BenchCompare and driven by cmd/pmcbench.
package perf

import (
	"fmt"
	"io"

	"pmc/internal/pmcd"
)

// Schema versions the BENCH.json layout. Compare refuses to diff reports
// with different schemas.
const Schema = 2

// Entry is one benchmark of a suite: a named pmcd job. A sweep job must
// name exactly one cell.
type Entry struct {
	Name string       `json:"name"`
	Job  pmcd.JobSpec `json:"job"`
}

// Spec declares a benchmark run.
type Spec struct {
	// Suite names the entry set (recorded in the report).
	Suite string
	// Reps is the number of runs per entry whose exact metrics must
	// agree (0 = 5; negative is rejected).
	Reps int
	// Entries lists the benchmarks to run.
	Entries []Entry
	// Progress, if non-nil, receives one line per completed entry.
	Progress io.Writer
}

// Metric is one exact, deterministic quantity of an entry.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Measurement is the result of one entry.
type Measurement struct {
	Name    string   `json:"name"`
	Metrics []Metric `json:"metrics"`
}

// Metric returns the named metric, or nil.
func (m *Measurement) Metric(name string) *Metric {
	for i := range m.Metrics {
		if m.Metrics[i].Name == name {
			return &m.Metrics[i]
		}
	}
	return nil
}

// Report is a completed benchmark run — the BENCH.json payload.
type Report struct {
	Schema  int           `json:"schema"`
	Suite   string        `json:"suite"`
	Reps    int           `json:"reps"`
	Entries []Measurement `json:"entries"`
}

// Entry returns the named measurement, or nil.
func (r *Report) Entry(name string) *Measurement {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// validate rejects malformed specs before any benchmark runs.
func (s *Spec) validate() error {
	if len(s.Entries) == 0 {
		return fmt.Errorf("perf: empty suite")
	}
	if s.Reps < 0 {
		return fmt.Errorf("perf: negative repetition count %d", s.Reps)
	}
	seen := make(map[string]bool, len(s.Entries))
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Name == "" {
			return fmt.Errorf("perf: entry %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("perf: duplicate entry name %q", e.Name)
		}
		seen[e.Name] = true
		n, err := e.Job.Normalize()
		if err != nil {
			return fmt.Errorf("perf: entry %q: %w", e.Name, err)
		}
		if j := n.Sweep; j != nil && len(j.Apps)*len(j.Backends)*len(j.Tiles)*len(j.Topos) != 1 {
			return fmt.Errorf("perf: entry %q is a sweep of more than one cell", e.Name)
		}
	}
	return nil
}

// Run executes every entry of the suite Reps times and returns the
// report. Exact metrics must be identical across repetitions; a mismatch
// is a determinism bug and fails the run.
func Run(spec Spec) (*Report, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	reps := spec.Reps
	if reps == 0 {
		reps = 5
	}
	rep := &Report{Schema: Schema, Suite: spec.Suite, Reps: reps}
	for _, e := range spec.Entries {
		m, err := measure(e, reps)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, *m)
		if spec.Progress != nil {
			fmt.Fprintf(spec.Progress, "%-40s %d metrics agree over %d reps\n", m.Name, len(m.Metrics), reps)
		}
	}
	return rep, nil
}

// measure runs one entry reps times and checks the repetitions agree.
func measure(e Entry, reps int) (*Measurement, error) {
	var first []Metric
	for r := 0; r < reps; r++ {
		ms, err := runEntry(e)
		if err != nil {
			return nil, fmt.Errorf("perf: entry %s: %w", e.Name, err)
		}
		if r == 0 {
			first = ms
		} else if err := sameExact(first, ms); err != nil {
			return nil, fmt.Errorf("perf: entry %s is non-deterministic across repetitions: %w", e.Name, err)
		}
	}
	return &Measurement{Name: e.Name, Metrics: first}, nil
}

// sameExact verifies two exact-metric lists are identical.
func sameExact(a, b []Metric) error {
	if len(a) != len(b) {
		return fmt.Errorf("metric count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: %v vs %v", a[i].Name, a[i].Value, b[i].Value)
		}
	}
	return nil
}

// runEntry executes one entry once and returns its exact metrics.
func runEntry(e Entry) ([]Metric, error) {
	res, err := pmcd.Run(e.Job, nil)
	if err != nil {
		return nil, err
	}
	switch {
	case res.Sweep != nil:
		row := res.Sweep.Rows[0]
		ms := []Metric{
			{Name: "sim-cycles", Value: float64(row.Cycles)},
			{Name: "flit-hops", Value: float64(row.FlitHops)},
			{Name: "checksum", Value: float64(row.Checksum)},
		}
		// Service workloads additionally gate on the exact tail-latency
		// metrics: any p50/p99 drift — a scheduling or protocol change
		// reaching request timing — fails the bench gate just like a
		// sim-cycles drift.
		if row.Result.Service != nil {
			ms = append(ms,
				Metric{Name: "requests", Value: float64(row.Requests)},
				Metric{Name: "p50-latency", Value: float64(row.P50Latency)},
				Metric{Name: "p99-latency", Value: float64(row.P99Latency)},
			)
		}
		return ms, nil
	case res.Litmus != nil:
		v := res.Litmus
		paths := 0
		for _, o := range v.Outcomes {
			paths += o.Executions
		}
		return []Metric{
			{Name: "states", Value: float64(v.States)},
			{Name: "outcomes", Value: float64(len(v.Outcomes))},
			{Name: "paths", Value: float64(paths)},
			{Name: "stuck", Value: float64(v.Stuck)},
		}, nil
	default:
		v := res.Fuzz
		return []Metric{
			{Name: "unique-programs", Value: float64(v.Unique)},
			{Name: "checked-pairs", Value: float64(v.Checked)},
			{Name: "violations", Value: float64(len(v.Violations))},
		}, nil
	}
}
