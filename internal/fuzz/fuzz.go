package fuzz

import (
	"errors"
	"fmt"
	"io"
	"slices"
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
	// Shrink minimizes violating programs by delta debugging: each
	// Violations entry, a rejected read or a forbidden outcome, while the
	// candidate still yields a finding of its kind.
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
	// keeps its spec, and a stale read the recorder rejects is a "read"
	// violation, caught before the forbidden outcome it would cause.
	SpecCheck bool
	// Progress, if non-nil, receives one line per verdict (emitted in
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

// Violation is the verdict on one (program, backend) pair: the pair's
// conformance report and its first finding, whose kind sorts the pair
// into a Summary list.
type Violation struct {
	// Seed regenerates the program: Generate(Seed, cfg.Gen).
	Seed    int64
	Backend string
	Program litmus.Program
	// Report is the pair's conformance report; nil when the check could
	// not start (Finding then carries the error as a "run" finding).
	Report *conform.Report
	// Finding is the pair's first finding.
	Finding conform.Finding
	// Shrunk is the delta-debugged minimal program still yielding a
	// finding of the same kind on the same backend (nil when shrinking
	// was off or capped, and for run and edge verdicts).
	Shrunk *litmus.Program
	// ShrunkReport is the conformance report of the shrunk program.
	ShrunkReport *conform.Report
	// ShrinkSteps counts accepted shrink candidates.
	ShrinkSteps int
}

// String renders the verdict as one summary line.
func (v *Violation) String() string {
	switch v.Finding.Kind {
	case "run":
		return fmt.Sprintf("RUN ERROR seed %d on %s: %s", v.Seed, v.Backend, v.Finding)
	case "edge":
		edges := 0
		for _, f := range v.Report.Findings {
			if f.Kind == "edge" && f.Seed == v.Finding.Seed {
				edges++
			}
		}
		return fmt.Sprintf("SPEC DIVERGENCE seed %d on %s: %d edges uncommitted, first: %s",
			v.Seed, v.Backend, edges, v.Finding)
	case "read":
		return fmt.Sprintf("VIOLATION seed %d on %s: %s; rejected read: %s", v.Seed, v.Backend, v.Report, v.Finding)
	}
	return fmt.Sprintf("VIOLATION seed %d on %s: %s", v.Seed, v.Backend, v.Report)
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
	// Checked counts the (program, backend) conformance checks that ran
	// and returned a report, failed runs included.
	Checked int
	// SpecChecked counts the checked (program, backend) pairs whose runs
	// were recorded and whose accepted traces were attributed to the
	// backend's spec (Config.SpecCheck).
	SpecChecked int

	// The pairs with a finding, in campaign order, sorted by the kind of
	// their first finding: Violations holds "read" and "outcome"
	// verdicts, Errors "run" verdicts (and checks that could not start),
	// SpecDivergences "edge" verdicts.
	Violations, Errors, SpecDivergences []*Violation
}

// Ok reports a clean campaign: no violations, no execution errors, and no
// spec divergences.
func (s *Summary) Ok() bool {
	return len(s.Violations) == 0 && len(s.Errors) == 0 && len(s.SpecDivergences) == 0
}

// add files a pair's verdict by the kind of its first finding.
func (s *Summary) add(v *Violation) {
	switch v.Finding.Kind {
	case "run":
		s.Errors = append(s.Errors, v)
	case "edge":
		s.SpecDivergences = append(s.SpecDivergences, v)
	default:
		s.Violations = append(s.Violations, v)
	}
}

// String renders the campaign result.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: seed %d, %d programs (%s mode): %d unique, %d duplicates, %d over budget, %d stuck\n",
		s.Seed, s.N, s.Mode, s.Unique, s.Deduped, s.SkippedBudget, s.SkippedStuck)
	fmt.Fprintf(&b, "checked %d program×backend pairs on %v (%d perturbed runs each): %d violations, %d run errors\n",
		s.Checked, s.Backends, s.Runs, len(s.Violations), len(s.Errors))
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
		if v.Shrunk != nil {
			fmt.Fprintf(&b, "    shrunk %d -> %d instructions (%d steps):\n%s",
				litmus.InstrCount(v.Program), litmus.InstrCount(*v.Shrunk), v.ShrinkSteps,
				indent(Render(*v.Shrunk), "      "))
		}
	}
	for _, v := range s.Errors {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if s.SpecChecked > 0 || len(s.SpecDivergences) > 0 {
		fmt.Fprintf(&b, "spec-checked %d recorded traces: %d divergences\n",
			s.SpecChecked, len(s.SpecDivergences))
		for _, v := range s.SpecDivergences {
			fmt.Fprintf(&b, "  %s\n", v)
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
		skippedBudget bool
		skippedStuck  bool
		checked       int
		verdicts      []*Violation
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
			v := &Violation{Seed: pr.seed, Backend: backend, Program: pr.prog}
			v.Report, v.Finding = check(cfg, pr.prog, backend, pr.seed, model)
			if v.Report != nil {
				res.checked++
			}
			if v.Finding.Kind != "" {
				res.verdicts = append(res.verdicts, v)
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
		for _, v := range res.verdicts {
			sum.add(v)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "fuzz: %s\n", v)
			}
		}
	}

	if cfg.SpecCheck {
		sum.SpecChecked = sum.Checked
	}

	if cfg.Shrink {
		for _, v := range sum.Violations[:min(len(sum.Violations), cfg.MaxShrink)] {
			shrinkViolation(cfg, v)
			if cfg.Progress != nil && v.Shrunk != nil {
				fmt.Fprintf(cfg.Progress, "fuzz: shrunk seed %d on %s to %d instructions:\n%s",
					v.Seed, v.Backend, litmus.InstrCount(*v.Shrunk), Render(*v.Shrunk))
			}
		}
	}
	return sum, nil
}

// check conformance-checks p on backend, for the campaign and for
// shrinking alike. It returns the report, kept whole even when a run
// failed, and its first finding; a check that could not start has no
// report, and its error becomes a "run" finding.
func check(cfg Config, p litmus.Program, backend string, seed int64, model *litmus.Result) (*conform.Report, conform.Finding) {
	opt, err := checkOptions(cfg, p, backend, seed, model)
	var rep *conform.Report
	if err == nil {
		rep, err = conform.CheckOpts(p, backend, opt)
	}
	switch {
	case rep == nil:
		return nil, conform.Finding{Seed: seed, Kind: "run", Detail: err.Error()}
	case len(rep.Findings) == 0:
		return rep, conform.Finding{}
	}
	return rep, rep.Findings[0]
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

// shrinkViolation minimizes v.Program while it still yields a finding of
// v's kind on v.Backend — a rejected read stays a rejected read, a
// forbidden outcome a forbidden outcome — and attaches the result. The
// repro closure caches the last reproducing report so the final accepted
// candidate's report is reused instead of re-checked. Unexplorable and
// deadlocking candidates do not reproduce.
func shrinkViolation(cfg Config, v *Violation) {
	var last *conform.Report
	repro := func(p litmus.Program) bool {
		model, err := explore(p, cfg.MaxStates)
		if err != nil || model.Stuck > 0 {
			return false
		}
		rep, _ := check(cfg, p, v.Backend, v.Seed, model)
		if rep == nil || !slices.ContainsFunc(rep.Findings, func(f conform.Finding) bool { return f.Kind == v.Finding.Kind }) {
			return false
		}
		last = rep
		return true
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
