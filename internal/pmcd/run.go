package pmcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// Job execution. Every runner produces deterministic bytes: the result
// body of a job is a pure function of its normalized spec, which is what
// lets the store serve it verbatim forever. Sweep tables reuse the sweep
// engine's own JSON emission (already byte-stable for any worker count);
// litmus and fuzz results serialize reduced, ordered views — sorted
// outcome lists and campaign-order violation lists.

// Progress is a job's coarse completion counter, updated atomically by
// the runner and readable while the job runs (the events stream polls
// it). Units are job-kind-specific: sweep counts grid cells, litmus
// counts 1 step, fuzz counts generated programs.
type Progress struct {
	done  atomic.Int64
	total atomic.Int64
}

// Snapshot returns (done, total).
func (p *Progress) Snapshot() (int64, int64) { return p.done.Load(), p.total.Load() }

// run executes a normalized job spec and returns the deterministic result
// body. progress may be nil.
func run(spec JobSpec, progress *Progress) ([]byte, error) {
	if progress == nil {
		progress = &Progress{}
	}
	switch {
	case spec.Sweep != nil:
		return runSweep(spec.Sweep, progress)
	case spec.Litmus != nil:
		return runLitmus(spec.Litmus, progress)
	case spec.Fuzz != nil:
		return runFuzz(spec.Fuzz, progress)
	}
	return nil, fmt.Errorf("pmcd: empty job spec")
}

func runSweep(j *SweepJob, progress *Progress) ([]byte, error) {
	spec, err := j.sweepSpec()
	if err != nil {
		return nil, err
	}
	// The Make hook is attached only for execution (scale selection +
	// progress accounting); the job's identity was fixed from the
	// declarative axes before it reached here.
	small := j.Small
	spec.Make = func(c sweep.Cell) (workloads.App, error) {
		app, ok := workloads.Scaled(c.App, small)
		if !ok {
			return nil, fmt.Errorf("unknown app %q", c.App)
		}
		progress.done.Add(1)
		return app, nil
	}
	progress.total.Store(int64(len(spec.Cells())))
	table, err := sweep.Run(*spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// litmusResult is the serialized view of an exploration: sorted outcomes,
// so the bytes are canonical.
type litmusResult struct {
	Prog     string `json:"prog"`
	States   int    `json:"states"`
	Stuck    int    `json:"stuck"`
	Outcomes []struct {
		Outcome    string `json:"outcome"`
		Executions int    `json:"executions"`
	} `json:"outcomes"`
}

func runLitmus(j *LitmusJob, progress *Progress) ([]byte, error) {
	prog, ok := litmus.ByName(j.Prog)
	if !ok {
		return nil, fmt.Errorf("pmcd: unknown litmus program %q", j.Prog)
	}
	progress.total.Store(1)
	x := litmus.NewExplorer(prog)
	x.Memoize = !j.Tree
	if j.Tree {
		x.Workers = 1 // the tree reference engine is sequential
	}
	if j.MaxStates > 0 {
		x.MaxStates = j.MaxStates
	}
	res, err := x.Run()
	if err != nil {
		return nil, err
	}
	out := litmusResult{Prog: j.Prog, States: res.States, Stuck: res.Stuck}
	for _, o := range res.OutcomeList() {
		out.Outcomes = append(out.Outcomes, struct {
			Outcome    string `json:"outcome"`
			Executions int    `json:"executions"`
		}{o, res.Outcomes[o]})
	}
	progress.done.Store(1)
	return marshalBody(out)
}

// fuzzResult is the serialized campaign summary: the worker-count-
// independent tallies plus the violations and errors in campaign order.
type fuzzResult struct {
	Seed          int64    `json:"seed"`
	N             int      `json:"n"`
	Mode          string   `json:"mode"`
	Backends      []string `json:"backends"`
	Runs          int      `json:"runs"`
	Unique        int      `json:"unique"`
	Deduped       int      `json:"deduped"`
	SkippedBudget int      `json:"skipped_budget"`
	SkippedStuck  int      `json:"skipped_stuck"`
	Checked       int      `json:"checked"`
	Ok            bool     `json:"ok"`
	Violations    []struct {
		Seed    int64  `json:"seed"`
		Backend string `json:"backend"`
	} `json:"violations,omitempty"`
	Errors []struct {
		Seed    int64  `json:"seed"`
		Backend string `json:"backend"`
		Err     string `json:"err"`
	} `json:"errors,omitempty"`
}

func runFuzz(j *FuzzJob, progress *Progress) ([]byte, error) {
	mode, err := fuzz.ParseMode(j.Mode)
	if err != nil {
		return nil, err
	}
	progress.total.Store(int64(j.N))
	sum, err := fuzz.Run(fuzz.Config{
		Seed:     j.Seed,
		N:        j.N,
		Gen:      fuzz.GenConfig{Mode: mode},
		Backends: j.Backends,
		Runs:     j.Runs,
	})
	if err != nil {
		return nil, err
	}
	out := fuzzResult{
		Seed: sum.Seed, N: sum.N, Mode: sum.Mode.String(), Backends: sum.Backends,
		Runs: sum.Runs, Unique: sum.Unique, Deduped: sum.Deduped,
		SkippedBudget: sum.SkippedBudget, SkippedStuck: sum.SkippedStuck,
		Checked: sum.Checked, Ok: sum.Ok(),
	}
	for _, v := range sum.Violations {
		out.Violations = append(out.Violations, struct {
			Seed    int64  `json:"seed"`
			Backend string `json:"backend"`
		}{v.Seed, v.Backend})
	}
	for _, e := range sum.Errors {
		out.Errors = append(out.Errors, struct {
			Seed    int64  `json:"seed"`
			Backend string `json:"backend"`
			Err     string `json:"err"`
		}{e.Seed, e.Backend, e.Err})
	}
	progress.done.Store(int64(j.N))
	return marshalBody(out)
}

// marshalBody serializes a result view with the repo's JSON convention
// (indented, trailing newline) — the same bytes a fresh simulation and a
// cache hit must both produce.
func marshalBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
