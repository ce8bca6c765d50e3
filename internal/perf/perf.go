// Package perf is the repo's exact behaviour contract: a declarative
// suite executed across the repo's layers — simulated workloads (apps ×
// backends × tiles × topology), litmus exploration (tree vs memoized vs
// parallel engines) and seeded differential fuzz campaigns — whose
// deterministic results serialize to a versioned JSON report that Compare
// diffs against a committed baseline.
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

	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/workloads"
)

// Schema versions the BENCH.json layout. Compare refuses to diff reports
// with different schemas.
const Schema = 2

// SimBench measures one simulated workload run: app (workloads.ByName
// names) on backend with the given tile count and NoC topology.
type SimBench struct {
	App     string `json:"app"`
	Backend string `json:"backend"`
	Tiles   int    `json:"tiles"`
	Topo    string `json:"topo,omitempty"`  // "" = ring
	Small   bool   `json:"small,omitempty"` // CI-sized app configuration
}

// LitmusBench measures one exhaustive litmus exploration under a chosen
// engine configuration.
type LitmusBench struct {
	Prog string `json:"prog"`
	// Workers is the exploration goroutine count (0 = GOMAXPROCS,
	// 1 = sequential).
	Workers int `json:"workers"`
	// Memoize enables canonical-state deduplication. Workers=1 with
	// Memoize=false is the reference tree engine.
	Memoize bool `json:"memoize"`
	// MaxStates overrides the state budget (0 = explorer default).
	MaxStates int `json:"max_states,omitempty"`
	// Symmetry collapses automorphism-related states (requires Memoize);
	// outcomes and paths are unchanged, states shrinks by the orbit
	// factor.
	Symmetry bool `json:"symmetry,omitempty"`
}

// FuzzBench runs a seeded differential fuzzing campaign. The campaign
// summary (unique programs, checks, violations) is
// worker-count-independent, so its tallies are exact metrics.
type FuzzBench struct {
	Seed     int64    `json:"seed"`
	N        int      `json:"n"`
	Mode     string   `json:"mode"`
	Backends []string `json:"backends,omitempty"` // nil = the paper's four
	Runs     int      `json:"runs,omitempty"`     // perturbed runs per pair
}

// Entry is one benchmark of a suite: exactly one of Sim, Litmus, Fuzz is
// set.
type Entry struct {
	Name   string       `json:"name"`
	Sim    *SimBench    `json:"sim,omitempty"`
	Litmus *LitmusBench `json:"litmus,omitempty"`
	Fuzz   *FuzzBench   `json:"fuzz,omitempty"`
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
		n := 0
		for _, set := range []bool{e.Sim != nil, e.Litmus != nil, e.Fuzz != nil} {
			if set {
				n++
			}
		}
		if n != 1 {
			return fmt.Errorf("perf: entry %q must set exactly one of sim/litmus/fuzz", e.Name)
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
	switch {
	case e.Sim != nil:
		return runSim(e.Sim)
	case e.Litmus != nil:
		return runLitmus(e.Litmus)
	case e.Fuzz != nil:
		return runFuzz(e.Fuzz)
	}
	return nil, fmt.Errorf("entry %q sets none of sim/litmus/fuzz", e.Name)
}

func runSim(sb *SimBench) ([]Metric, error) {
	app, ok := workloads.Scaled(sb.App, sb.Small)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", sb.App)
	}
	cfg := soc.DefaultConfig()
	if sb.Tiles > 0 {
		cfg.Tiles = sb.Tiles
	}
	if sb.Topo != "" {
		topo, err := noc.ParseTopology(sb.Topo)
		if err != nil {
			return nil, err
		}
		cfg.NoC.Topology = topo
	}
	// Large entries outgrow the default memory map (its per-tile private
	// heaps stop at 48 tiles); the guard leaves every ≤32-tile entry — and
	// so every recorded baseline metric — untouched.
	if need := rt.MinSDRAMBytes(cfg.Tiles); need > cfg.SDRAMBytes {
		cfg.SDRAMBytes = need
	}
	res, err := workloads.Run(app, cfg, sb.Backend)
	if err != nil {
		return nil, err
	}
	ms := []Metric{
		{Name: "sim-cycles", Value: float64(res.Cycles)},
		{Name: "flit-hops", Value: float64(res.FlitHops)},
		{Name: "checksum", Value: float64(res.Checksum)},
	}
	// Service workloads additionally gate on the exact tail-latency
	// metrics: any p50/p99 drift — a scheduling or protocol change
	// reaching request timing — fails the bench gate just like a
	// sim-cycles drift.
	if res.Service != nil {
		ms = append(ms,
			Metric{Name: "requests", Value: float64(res.Service.Completed)},
			Metric{Name: "p50-latency", Value: float64(res.Service.P50())},
			Metric{Name: "p99-latency", Value: float64(res.Service.P99())},
		)
	}
	return ms, nil
}

func runLitmus(lb *LitmusBench) ([]Metric, error) {
	prog, ok := litmus.ByName(lb.Prog)
	if !ok {
		return nil, fmt.Errorf("unknown litmus program %q", lb.Prog)
	}
	x := litmus.NewExplorer(prog)
	x.Workers = lb.Workers
	x.Memoize = lb.Memoize
	x.Symmetry = lb.Symmetry
	if lb.MaxStates > 0 {
		x.MaxStates = lb.MaxStates
	}
	res, err := x.Run()
	if err != nil {
		return nil, err
	}
	paths := 0
	for _, n := range res.Outcomes {
		paths += n
	}
	return []Metric{
		{Name: "states", Value: float64(res.States)},
		{Name: "outcomes", Value: float64(len(res.Outcomes))},
		{Name: "paths", Value: float64(paths)},
		{Name: "stuck", Value: float64(res.Stuck)},
	}, nil
}

func runFuzz(fb *FuzzBench) ([]Metric, error) {
	mode, err := fuzz.ParseMode(fb.Mode)
	if err != nil {
		return nil, err
	}
	sum, err := fuzz.Run(fuzz.Config{
		Seed:     fb.Seed,
		N:        fb.N,
		Gen:      fuzz.GenConfig{Mode: mode},
		Backends: fb.Backends,
		Runs:     fb.Runs,
	})
	if err != nil {
		return nil, err
	}
	return []Metric{
		{Name: "unique-programs", Value: float64(sum.Unique)},
		{Name: "checked-pairs", Value: float64(sum.Checked)},
		{Name: "violations", Value: float64(len(sum.Violations))},
	}, nil
}
