package fuzz

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"pmc/internal/conform"
	"pmc/internal/core"
	"pmc/internal/litmus"
	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/spec"
	"pmc/internal/sweep"
)

// Config drives one fuzzing campaign. Everything derives from Seed: the
// program with index i is Generate(Seed+i, Gen), so any individual program
// — including every violation the summary reports — is reproducible by
// re-running with that program's printed seed and N=1.
type Config struct {
	// Seed is the base seed; program i uses seed Seed+i.
	Seed int64
	// N is the number of programs to generate.
	N int
	// Gen bounds the generator.
	Gen GenConfig
	// Backends lists the runtime backends to check (default: the paper's
	// four — nocc, swcc, dsm, spm).
	Backends []string
	// Tiles is the simulated system size (default: Gen.MaxThreads,
	// at least 2 — litmus threads map 1:1 onto tiles).
	Tiles int
	// Runs is the number of timing perturbations per (program, backend)
	// pair (default 3).
	Runs int
	// Workers caps concurrent program checks: 0 means GOMAXPROCS.
	Workers int
	// Shrink minimizes violating programs by delta debugging.
	Shrink bool
	// MaxShrink caps how many violations are shrunk (0 = 4). Shrinking
	// re-checks dozens of candidates per violation, and one minimized
	// counterexample per failure class is what a human needs.
	MaxShrink int
	// MaxStates is the per-program exploration budget (0 = 300k);
	// programs that exceed it are skipped and counted.
	MaxStates int
	// MaxCycles bounds each simulated run (0 = 400k cycles) so
	// livelocking candidates fail fast during shrinking.
	MaxCycles sim.Time
	// Faults disables the selected protocol steps on every checked
	// backend, mixed routes included (see conform.Options.Faults) — for
	// proving the fuzzer catches real protocol bugs. The zero value
	// injects nothing.
	Faults rt.FaultSet
	// SpecCheck records every perturbed run of each unique (program,
	// backend) pair with the model recorder, which costs no simulated
	// time, and attributes every edge of each lowered trace to the
	// backend's declared ordering spec (spec.CheckTrace) — the
	// differential fuzzer then hunts spec/implementation divergence, not
	// just model violations. It composes with Faults: a faulted backend
	// keeps its spec, and a stale read the recorder rejects is a run error.
	SpecCheck bool
	// Progress, if non-nil, receives one line per violation (emitted in
	// campaign order after the parallel phase merges) and per shrink
	// result. It is only written from the calling goroutine.
	Progress io.Writer
}

// DefaultBackends is the paper's four-architecture matrix.
var DefaultBackends = []string{"nocc", "swcc", "dsm", "spm"}

func (c Config) withDefaults() Config {
	c.Gen = c.Gen.withDefaults()
	if len(c.Backends) == 0 {
		c.Backends = DefaultBackends
	}
	// A "mixed" backend entry checks per-location routing: it needs
	// programs that actually carry placements, so it implies a generator
	// backend pool (the paper's four protocols unless the caller set one).
	if len(c.Gen.BackendPool) == 0 {
		for _, b := range c.Backends {
			if b == conform.MixedBackend {
				c.Gen.BackendPool = DefaultBackends
				break
			}
		}
	}
	if c.Tiles == 0 {
		c.Tiles = c.Gen.MaxThreads
	}
	if c.Tiles < 2 {
		c.Tiles = 2
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.MaxShrink <= 0 {
		c.MaxShrink = 4
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 300_000
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 400_000
	}
	return c
}

// Violation is one program whose simulated outcomes escaped the model.
type Violation struct {
	// Seed regenerates the program: Generate(Seed, cfg.Gen).
	Seed    int64
	Backend string
	Program litmus.Program
	Report  *conform.Report
	// Shrunk is the delta-debugged minimal program still exhibiting a
	// violation on the same backend (nil when shrinking was off or
	// capped).
	Shrunk *litmus.Program
	// ShrunkReport is the conformance report of the shrunk program.
	ShrunkReport *conform.Report
	// ShrinkSteps counts accepted shrink candidates.
	ShrinkSteps int
}

// RunError is a program whose simulated execution failed outright
// (deadlock, watchdog livelock) — a liveness failure rather than a safety
// violation. Fault-injected runs routinely produce these. Under SpecCheck
// a read the recorder rejects fails its run too.
type RunError struct {
	Seed    int64
	Backend string
	Err     string
}

// SpecDivergence is one (program, backend) pair whose recorded trace
// contains edges the backend's declared ordering spec does not commit —
// the implementation performs orderings its spec never promised, or the
// spec is out of date.
type SpecDivergence struct {
	Seed    int64
	Backend string
	// Edges counts the unattributable edges of the first run that has
	// any; First is the first of them.
	Edges int
	First string
}

// Summary is the result of a fuzzing campaign.
type Summary struct {
	Seed     int64
	N        int
	Mode     Mode
	Backends []string
	Runs     int

	// Unique is the number of distinct programs checked after canonical
	// fingerprint deduplication; Deduped counts the discarded copies.
	Unique, Deduped int
	// SkippedBudget counts programs whose exploration exceeded
	// MaxStates; SkippedStuck counts programs the model says can
	// deadlock (never produced by the generator's discipline — a
	// nonzero count is a generator bug surfacing).
	SkippedBudget, SkippedStuck int
	// Checked counts (program, backend) conformance checks completed.
	Checked int
	// SpecChecked counts the checked (program, backend) pairs whose
	// recorded runs were all spec-trace checked (Config.SpecCheck).
	SpecChecked int

	Violations      []*Violation
	Errors          []RunError
	SpecDivergences []SpecDivergence
}

// Ok reports a clean campaign: no violations, no execution errors, and no
// spec divergences.
func (s *Summary) Ok() bool {
	return len(s.Violations) == 0 && len(s.Errors) == 0 && len(s.SpecDivergences) == 0
}

// String renders the campaign result.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: seed %d, %d programs (%s mode): %d unique, %d duplicates, %d over budget, %d stuck\n",
		s.Seed, s.N, s.Mode, s.Unique, s.Deduped, s.SkippedBudget, s.SkippedStuck)
	fmt.Fprintf(&b, "checked %d program×backend pairs on %v (%d perturbed runs each): %d violations, %d run errors\n",
		s.Checked, s.Backends, s.Runs, len(s.Violations), len(s.Errors))
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "  VIOLATION seed %d on %s: %s\n", v.Seed, v.Backend, v.Report)
		if v.Shrunk != nil {
			fmt.Fprintf(&b, "    shrunk %d -> %d instructions (%d steps):\n%s",
				litmus.InstrCount(v.Program), litmus.InstrCount(*v.Shrunk), v.ShrinkSteps,
				indent(Render(*v.Shrunk), "      "))
		}
	}
	for _, e := range s.Errors {
		fmt.Fprintf(&b, "  RUN ERROR seed %d on %s: %s\n", e.Seed, e.Backend, e.Err)
	}
	if s.SpecChecked > 0 || len(s.SpecDivergences) > 0 {
		fmt.Fprintf(&b, "spec-checked %d recorded traces: %d divergences\n",
			s.SpecChecked, len(s.SpecDivergences))
		for _, d := range s.SpecDivergences {
			fmt.Fprintf(&b, "  SPEC DIVERGENCE seed %d on %s: %d edges uncommitted, first: %s\n",
				d.Seed, d.Backend, d.Edges, d.First)
		}
	}
	return b.String()
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Render prints a program as one line per thread (preceded by the widths
// of any multi-word locations), for violation reports.
func Render(p litmus.Program) string {
	var b strings.Builder
	if len(p.Widths) > 0 {
		var wide []string
		for _, loc := range p.Locs {
			if w := p.WidthOf(loc); w > 1 {
				wide = append(wide, fmt.Sprintf("%s[%d]", loc, w))
			}
		}
		if len(wide) > 0 {
			fmt.Fprintf(&b, "wide: %s\n", strings.Join(wide, " "))
		}
	}
	if len(p.Placement) > 0 {
		var placed []string
		for _, loc := range p.Locs {
			if pb := p.Placement[loc]; pb != "" {
				placed = append(placed, fmt.Sprintf("%s=%s", loc, pb))
			}
		}
		if len(placed) > 0 {
			fmt.Fprintf(&b, "place: %s\n", strings.Join(placed, " "))
		}
	}
	for ti, th := range p.Threads {
		fmt.Fprintf(&b, "T%d:", ti)
		for _, in := range th {
			b.WriteString(" " + renderInstr(in) + ";")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderInstr(in litmus.Instr) string {
	switch in.Kind {
	case litmus.IRead:
		return fmt.Sprintf("%s=read(%s)", in.Reg, in.Loc)
	case litmus.IWrite:
		return fmt.Sprintf("write(%s,%d)", in.Loc, in.Val)
	case litmus.IAcquire:
		return fmt.Sprintf("entry_x(%s)", in.Loc)
	case litmus.IRelease:
		return fmt.Sprintf("exit_x(%s)", in.Loc)
	case litmus.IFence:
		if in.Loc != "" {
			return fmt.Sprintf("fence(%s)", in.Loc)
		}
		return "fence()"
	case litmus.IFlush:
		return fmt.Sprintf("flush(%s)", in.Loc)
	case litmus.IAwaitEq:
		if in.Reg != "" {
			return fmt.Sprintf("%s=await(%s==%d)", in.Reg, in.Loc, in.Val)
		}
		return fmt.Sprintf("await(%s==%d)", in.Loc, in.Val)
	case litmus.IReadBlock:
		return fmt.Sprintf("%s=read_block(%s)", in.Reg, in.Loc)
	case litmus.IWriteBlock:
		return fmt.Sprintf("write_block(%s,%d..)", in.Loc, in.Val)
	}
	return fmt.Sprintf("instr(%d)", in.Kind)
}

// program is one generated campaign entry.
type program struct {
	seed int64
	prog litmus.Program
}

// Run executes the campaign. The summary is deterministic for a given
// config, independent of Workers.
func Run(cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("fuzz: N must be positive")
	}
	if cfg.Gen.MaxThreads > cfg.Tiles {
		return nil, fmt.Errorf("fuzz: %d threads need at least %d tiles", cfg.Gen.MaxThreads, cfg.Gen.MaxThreads)
	}
	sum := &Summary{
		Seed: cfg.Seed, N: cfg.N, Mode: cfg.Gen.Mode,
		Backends: cfg.Backends, Runs: cfg.Runs,
	}

	// Generate serially and deduplicate by canonical fingerprint: the
	// unique set (and therefore the whole summary) is independent of the
	// worker count.
	seen := make(map[string]bool, cfg.N)
	var progs []program
	for i := 0; i < cfg.N; i++ {
		seed := cfg.Seed + int64(i)
		p := Generate(seed, cfg.Gen)
		fp := litmus.Fingerprint(p)
		if seen[fp] {
			sum.Deduped++
			continue
		}
		seen[fp] = true
		progs = append(progs, program{seed: seed, prog: p})
	}
	sum.Unique = len(progs)

	type result struct {
		skippedBudget   bool
		skippedStuck    bool
		checked         int
		specChecked     int
		violations      []*Violation
		errors          []RunError
		specDivergences []SpecDivergence
	}
	results := make([]result, len(progs))
	err := sweep.Each(len(progs), cfg.Workers, func(i int) error {
		res := &results[i]
		pr := progs[i]
		model, err := explore(pr.prog, cfg.MaxStates)
		if err != nil {
			if isBudget(err) {
				res.skippedBudget = true
				return nil
			}
			return fmt.Errorf("fuzz seed %d: %w", pr.seed, err)
		}
		if model.Stuck > 0 {
			res.skippedStuck = true
			return nil
		}
		for _, backend := range cfg.Backends {
			opt, err := checkOptions(cfg, pr.prog, backend, pr.seed, model)
			var rep *conform.Report
			if err == nil {
				rep, err = conform.CheckOpts(pr.prog, backend, opt)
			}
			if err != nil {
				res.errors = append(res.errors, RunError{Seed: pr.seed, Backend: backend, Err: err.Error()})
				continue
			}
			res.checked++
			if !rep.Ok() {
				res.violations = append(res.violations,
					&Violation{Seed: pr.seed, Backend: backend, Program: pr.prog, Report: rep})
			}
			if opt.Trace != nil {
				res.specChecked++
				if d := specDivergence(pr.seed, backend, rep); d != nil {
					res.specDivergences = append(res.specDivergences, *d)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Progress is emitted after the deterministic merge, from this single
	// goroutine: worker goroutines never touch the writer (it need not be
	// thread-safe) and the lines come out in campaign order.
	for i := range results {
		res := &results[i]
		if res.skippedBudget {
			sum.SkippedBudget++
		}
		if res.skippedStuck {
			sum.SkippedStuck++
		}
		sum.Checked += res.checked
		sum.SpecChecked += res.specChecked
		sum.Violations = append(sum.Violations, res.violations...)
		sum.Errors = append(sum.Errors, res.errors...)
		sum.SpecDivergences = append(sum.SpecDivergences, res.specDivergences...)
		if cfg.Progress != nil {
			for _, v := range res.violations {
				fmt.Fprintf(cfg.Progress, "fuzz: VIOLATION seed %d on %s: %s\n", v.Seed, v.Backend, v.Report)
			}
			for _, d := range res.specDivergences {
				fmt.Fprintf(cfg.Progress, "fuzz: SPEC DIVERGENCE seed %d on %s: %d edges, first: %s\n",
					d.Seed, d.Backend, d.Edges, d.First)
			}
		}
	}

	if cfg.Shrink {
		shrunk := 0
		for _, v := range sum.Violations {
			if shrunk >= cfg.MaxShrink {
				break
			}
			shrinkViolation(cfg, v)
			shrunk++
			if cfg.Progress != nil && v.Shrunk != nil {
				fmt.Fprintf(cfg.Progress, "fuzz: shrunk seed %d on %s to %d instructions:\n%s",
					v.Seed, v.Backend, litmus.InstrCount(*v.Shrunk), Render(*v.Shrunk))
			}
		}
	}
	return sum, nil
}

// checkOptions builds the conformance options of one (program, backend)
// pair, for the campaign and for shrinking alike. Under SpecCheck every
// run is recorded and its trace attributed to the backend's declared
// spec. A mixed run checks against the union of nocc (the default route)
// and every placed backend's spec — any protocol may have committed any
// given edge.
func checkOptions(cfg Config, p litmus.Program, backend string, seed int64, model *litmus.Result) (conform.Options, error) {
	opt := conform.Options{
		Tiles:     cfg.Tiles,
		Runs:      cfg.Runs,
		Seed:      seed,
		MaxCycles: cfg.MaxCycles,
		Faults:    cfg.Faults,
		Model:     model,
	}
	if !cfg.SpecCheck {
		return opt, nil
	}
	names := []string{backend}
	if backend == conform.MixedBackend {
		names = []string{"nocc"}
		seen := map[string]bool{"nocc": true}
		for _, loc := range p.Locs {
			if pb := p.Placement[loc]; pb != "" && !seen[pb] {
				seen[pb] = true
				names = append(names, pb)
			}
		}
	}
	specs := make([]spec.Spec, len(names))
	for i, n := range names {
		s, err := spec.ForBackend(n)
		if err != nil {
			return opt, err
		}
		specs[i] = s
	}
	opt.Trace = func(exec *core.Execution) []string { return spec.CheckTrace(exec, specs...) }
	return opt, nil
}

// specDivergence reads a spec-checked pair's report: the edges of the
// first run whose trace the specs do not fully commit, or nil.
func specDivergence(seed int64, backend string, rep *conform.Report) *SpecDivergence {
	var d *SpecDivergence
	var run int64
	for _, f := range rep.Findings {
		switch {
		case f.Kind != "edge":
		case d == nil:
			d, run = &SpecDivergence{Seed: seed, Backend: backend, Edges: 1, First: f.Detail}, f.Seed
		case f.Seed == run:
			d.Edges++
		}
	}
	return d
}

// explore runs the model on the effective program with a state budget.
// Exploration is single-threaded: the campaign parallelizes across
// programs, not within one.
func explore(p litmus.Program, maxStates int) (*litmus.Result, error) {
	x := litmus.NewExplorer(conform.EffectiveProgram(p))
	x.Workers = 1
	x.MaxStates = maxStates
	return x.Run()
}

func isBudget(err error) bool { return errors.Is(err, litmus.ErrBudget) }

// shrinkViolation minimizes v.Program while it still yields any forbidden
// outcome on v.Backend, and attaches the result. The repro closure caches
// the last failing report so the final accepted candidate's report is
// reused instead of re-checked.
func shrinkViolation(cfg Config, v *Violation) {
	var last *conform.Report
	repro := func(p litmus.Program) bool {
		rep := checkOnce(cfg, p, v)
		if rep != nil && !rep.Ok() {
			last = rep
			return true
		}
		return false
	}
	min, steps := Shrink(v.Program, repro)
	v.ShrinkSteps = steps
	v.Shrunk = &min
	if steps == 0 {
		// Nothing was accepted: the minimum is the original program,
		// whose report we already have.
		v.ShrunkReport = v.Report
		return
	}
	v.ShrunkReport = last
}

// checkOnce conformance-checks p on the violation's backend; nil on any
// error (unexplorable, deadlocked or livelocked candidates do not
// reproduce).
func checkOnce(cfg Config, p litmus.Program, v *Violation) *conform.Report {
	model, err := explore(p, cfg.MaxStates)
	if err != nil || model.Stuck > 0 {
		return nil
	}
	opt, err := checkOptions(cfg, p, v.Backend, v.Seed, model)
	if err != nil {
		return nil
	}
	rep, err := conform.CheckOpts(p, v.Backend, opt)
	if err != nil {
		return nil
	}
	return rep
}
