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

// Job execution. Run is the one runner behind every job kind: it returns
// a typed Result, and Body serializes that result to the deterministic
// bytes the store serves verbatim forever. Sweep tables reuse the sweep
// engine's own JSON emission (already byte-stable for any worker count);
// litmus and fuzz results serialize reduced, ordered views — sorted
// outcome lists and campaign-order violation lists. The behaviour contract
// (internal/perf) reads its exact metrics off the same Result.

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

// Result is a completed job: exactly one of Sweep, Litmus, Fuzz is set,
// matching the job's kind.
type Result struct {
	Sweep  *sweep.Table
	Litmus *LitmusView
	Fuzz   *FuzzView
}

// Run normalizes spec, executes it and returns its typed result. progress
// may be nil.
func Run(spec JobSpec, progress *Progress) (*Result, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if progress == nil {
		progress = &Progress{}
	}
	var r Result
	switch {
	case n.Sweep != nil:
		r.Sweep, err = runSweep(n.Sweep, progress)
	case n.Litmus != nil:
		r.Litmus, err = runLitmus(n.Litmus, progress)
	default:
		r.Fuzz, err = runFuzz(n.Fuzz, progress)
	}
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// Body serializes the result with the repo's JSON convention (indented,
// trailing newline) — the same bytes a fresh simulation and a cache hit
// must both produce.
func (r *Result) Body() ([]byte, error) {
	var buf bytes.Buffer
	if r.Sweep != nil {
		if err := r.Sweep.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	var v any = r.Litmus
	if r.Fuzz != nil {
		v = r.Fuzz
	}
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func runSweep(j *SweepJob, progress *Progress) (*sweep.Table, error) {
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
	return sweep.Run(*spec)
}

// LitmusView is the result of a litmus job: sorted outcomes, so the bytes
// are canonical.
type LitmusView struct {
	Prog     string `json:"prog"`
	States   int    `json:"states"`
	Stuck    int    `json:"stuck"`
	Outcomes []struct {
		Outcome    string `json:"outcome"`
		Executions int    `json:"executions"`
	} `json:"outcomes"`
}

func runLitmus(j *LitmusJob, progress *Progress) (*LitmusView, error) {
	prog, ok := litmus.ByName(j.Prog)
	if !ok {
		return nil, fmt.Errorf("pmcd: unknown litmus program %q", j.Prog)
	}
	progress.total.Store(1)
	x := litmus.NewExplorer(prog)
	x.Memoize = !j.Tree
	x.Symmetry = j.Symmetry
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
	v := &LitmusView{Prog: j.Prog, States: res.States, Stuck: res.Stuck}
	for _, o := range res.OutcomeList() {
		v.Outcomes = append(v.Outcomes, struct {
			Outcome    string `json:"outcome"`
			Executions int    `json:"executions"`
		}{o, res.Outcomes[o]})
	}
	progress.done.Store(1)
	return v, nil
}

// FuzzView is the result of a fuzz job: the worker-count-independent
// campaign tallies plus the violations and errors in campaign order.
type FuzzView struct {
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

func runFuzz(j *FuzzJob, progress *Progress) (*FuzzView, error) {
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
	v := &FuzzView{
		Seed: sum.Seed, N: sum.N, Mode: sum.Mode.String(), Backends: sum.Backends,
		Runs: sum.Runs, Unique: sum.Unique, Deduped: sum.Deduped,
		SkippedBudget: sum.SkippedBudget, SkippedStuck: sum.SkippedStuck,
		Checked: sum.Checked, Ok: sum.Ok(),
	}
	for _, f := range sum.Violations {
		v.Violations = append(v.Violations, struct {
			Seed    int64  `json:"seed"`
			Backend string `json:"backend"`
		}{f.Seed, f.Backend})
	}
	for _, e := range sum.Errors {
		v.Errors = append(v.Errors, struct {
			Seed    int64  `json:"seed"`
			Backend string `json:"backend"`
			Err     string `json:"err"`
		}{e.Seed, e.Backend, e.Err})
	}
	progress.done.Store(int64(j.N))
	return v, nil
}
