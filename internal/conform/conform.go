// Package conform runs litmus programs directly on the simulated SoC —
// through the PMC runtime and a concrete backend — and checks that every
// outcome the hardware/runtime combination produces is admitted by the
// formal model's exhaustive exploration. This is the paper's verification
// claim made executable: "the PMC model is designed such that a mapping of
// the primitives and ordering relations to specific hardware can be
// designed and verified with relative ease" (Section I).
//
// A single simulated run is deterministic and yields one outcome; to
// sample the implementation's outcome space the harness re-runs each
// program under many timing perturbations (per-thread start staggers and
// poll backoffs), which shift the interleaving without touching program
// logic. Every perturbation derives from an explicit base seed recorded in
// the report, so any violation is reproducible from the report alone.
// Conformance requires observed ⊆ allowed; the inclusion is typically
// strict, because a real machine resolves races that the model leaves open.
//
// CheckOpts is the repository's only loop over perturbed runs. Given a
// trace check (Options.Trace), it records every run with the model
// recorder, so one simulation yields every verdict: whether the run
// completed, whether the recorder accepted each read, whether the outcome
// is allowed, and which recorded edges the check cannot attribute.
// spec.CheckBackend and the fuzzer's spec check both run through it.
//
// A fault is a value too (Options.Faults): each run wraps every route it
// allocates on with rt.InjectFaults, so the backend keeps its name, and
// its spec, and a fault reaches the placed backends of a MixedBackend run.
// This package is the only non-test caller of rt.InjectFaults.
package conform

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pmc/internal/core"
	"pmc/internal/litmus"
	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/soc"
)

// Report is the result of checking one program on one backend.
type Report struct {
	Program string
	Backend string
	// Seed is the base perturbation seed; run r was perturbed with
	// Seed+r.
	Seed int64
	// Allowed is the model's outcome set for the effective program (see
	// EffectiveProgram).
	Allowed []string
	// Observed maps each outcome seen on the simulator to the number of
	// perturbed runs that produced it.
	Observed map[string]int
	// Findings lists every verdict against a single run, in run order.
	// Its "outcome" findings are the observed outcomes the model forbids
	// (none for a conforming implementation).
	Findings []Finding
	Runs     int
}

// Finding is one verdict against one perturbed run, and the one verdict
// type of every check built on CheckOpts: spec.CheckBackend reports each
// as a spec.Divergence and the fuzzer classifies a pair by its first. A
// run yields them in order: a "run" or "read" finding ends its checks;
// otherwise it may yield an "outcome" finding and then "edge" findings.
type Finding struct {
	Seed int64
	// Kind is "run" (the simulation failed and left no execution), "read"
	// (the recorder rejected a read value — the stale read behind a
	// forbidden outcome, caught before the outcome forms), "outcome" (the
	// final register assignment is model-forbidden), "edge" (Options.Trace
	// found an edge of the recorded execution it cannot attribute) or
	// "spec" (spec.CheckBackend: the spec itself disagrees with the model;
	// no run, so no seed).
	Kind string
	// Detail is the run's error text, the forbidden outcome or the trace
	// check's problem.
	Detail string
}

// String renders the finding with the seed that reproduces it: a failed
// run or rejected read as its error, an outcome as model-forbidden, and an
// edge or spec problem as the bare problem text.
func (f Finding) String() string {
	switch f.Kind {
	case "run", "read":
		return fmt.Sprintf("%s (seed %d)", f.Detail, f.Seed)
	case "outcome":
		return fmt.Sprintf("%q is model-forbidden (seed %d)", f.Detail, f.Seed)
	}
	return f.Detail
}

// isOutcome reports a model-forbidden outcome finding.
func isOutcome(f Finding) bool { return f.Kind == "outcome" }

// Ok reports conformance: no run produced a model-forbidden outcome.
func (r *Report) Ok() bool { return !slices.ContainsFunc(r.Findings, isOutcome) }

// String renders the report compactly. Each forbidden outcome is listed
// once, with the seed of the first run that produced it: rerunning the
// program with that seed on the same backend reproduces the outcome.
func (r *Report) String() string {
	var forbidden []Finding
	for _, f := range r.Findings {
		if isOutcome(f) && !slices.ContainsFunc(forbidden, func(g Finding) bool { return g.Detail == f.Detail }) {
			forbidden = append(forbidden, f)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d runs (base seed %d), %d/%d allowed outcomes observed",
		r.Program, r.Backend, r.Runs, r.Seed, len(r.Observed)-len(forbidden), len(r.Allowed))
	if len(forbidden) > 0 {
		b.WriteString("; VIOLATIONS: [")
		for i, f := range forbidden {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%q (seed %d)", f.Detail, f.Seed)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Options configures a conformance check beyond the program and backend
// name.
type Options struct {
	// Tiles is the system size; it must cover the program's threads.
	Tiles int
	// Runs is the number of perturbed simulations.
	Runs int
	// Seed is the base perturbation seed: run r is perturbed with
	// Seed+r. The zero value reproduces the historical schedule
	// (run index as seed).
	Seed int64
	// MaxCycles bounds each simulated run; 0 means a generous default.
	// Fuzzing loops lower it so livelocking candidates fail fast.
	MaxCycles sim.Time
	// Base, if non-nil, is the system configuration template for every
	// run; Tiles and MaxCycles above still override its fields. The spec
	// checker uses it to pin a clustered interface topology without
	// growing the simulated system.
	Base *soc.Config
	// Faults disables the selected protocol steps on every route a run
	// allocates on: the named backend (nocc under MixedBackend) and, under
	// MixedBackend, each placed backend. Fault-injection harnesses use it
	// to check a deliberately broken protocol against the model; the
	// backend keeps its name, and so its spec. The zero value injects
	// nothing.
	Faults rt.FaultSet
	// Model, if non-nil, is a precomputed exploration of
	// EffectiveProgram(prog); the fuzzer shares one exploration across
	// all backends instead of re-exploring per check.
	Model *litmus.Result
	// Trace, if non-nil, records every run with the model recorder, which
	// costs no simulated time, and checks the recorded execution of each
	// run whose reads the recorder accepted. Each problem it returns
	// becomes an "edge" finding. The spec checker and the spec-checking
	// fuzzer pass spec.CheckTrace here. The execution, and every op and
	// edge list read from it, is valid only during the call: CheckOpts
	// then recycles it for the next run's recorder.
	Trace func(*core.Execution) []string
}

// MixedBackend is the pseudo-backend name selecting per-location routing:
// each location with a Placement entry is allocated on its placed backend
// (via rt.AllocOn) and the rest stay on the default nocc route, so one
// program exercises several protocols against the one model. Pure backend
// runs ignore Placement entirely — the same program doubles as its own
// single-backend control.
const MixedBackend = "mixed"

// CheckOpts explores prog under the model, then executes it on the
// simulator with the given backend under opt.Runs timing perturbations,
// and compares outcome sets. It is the one loop over perturbed runs: each
// run is simulated once and yields every verdict
// (see Finding). A run that fails, or whose read the recorder rejects,
// is listed in the report's Findings and the loop goes on; CheckOpts then
// returns the full report together with the first such run's error. A
// nil report means the check could not start.
func CheckOpts(prog litmus.Program, backend string, opt Options) (*Report, error) {
	if opt.Runs <= 0 {
		return nil, fmt.Errorf("conform: Runs must be positive (a 0-run check would vacuously pass)")
	}
	if opt.Tiles < len(prog.Threads) {
		return nil, fmt.Errorf("conform: %d tiles for %d threads", opt.Tiles, len(prog.Threads))
	}
	if backend == MixedBackend {
		// Surface bad placement names as an error here rather than an
		// AllocOn panic inside every perturbed run.
		for loc, pb := range prog.Placement {
			if _, err := rt.ByName(pb); err != nil {
				return nil, fmt.Errorf("conform %s: placement %s=%s: %w", prog.Name, loc, pb, err)
			}
		}
	}
	// One rewrite defines the program under test for BOTH sides: the
	// model explores it and the simulator executes it.
	eff := EffectiveProgram(prog)
	model := opt.Model
	if model == nil {
		var err error
		model, err = litmus.Explore(eff)
		if err != nil {
			return nil, err
		}
	}
	rep := &Report{
		Program:  prog.Name,
		Backend:  backend,
		Seed:     opt.Seed,
		Allowed:  model.OutcomeList(),
		Observed: make(map[string]int),
		Runs:     opt.Runs,
	}
	allowed := make(map[string]bool, len(rep.Allowed))
	for _, o := range rep.Allowed {
		allowed[o] = true
	}
	var first error
	for r := 0; r < opt.Runs; r++ {
		seed := opt.Seed + int64(r)
		outcome, exec, err := run(eff, backend, opt, uint32(seed), opt.Trace != nil)
		if err != nil {
			kind := "read"
			if exec == nil {
				kind = "run"
			}
			rep.Findings = append(rep.Findings, Finding{Seed: seed, Kind: kind, Detail: err.Error()})
			if first == nil {
				first = fmt.Errorf("conform %s on %s seed %d: %w", prog.Name, backend, seed, err)
			}
			if exec != nil {
				exec.Recycle()
			}
			continue
		}
		rep.Observed[outcome]++
		if !allowed[outcome] {
			rep.Findings = append(rep.Findings, Finding{Seed: seed, Kind: "outcome", Detail: outcome})
		}
		if opt.Trace != nil {
			for _, prob := range opt.Trace(exec) {
				rep.Findings = append(rep.Findings, Finding{Seed: seed, Kind: "edge", Detail: prob})
			}
			exec.Recycle()
		}
	}
	return rep, first
}

// EffectiveProgram completes a program under the runtime's annotation
// discipline: every access must happen inside an entry/exit scope, so
// each bare write gets its own entry_x/exit_x pair plus a flush (the
// flush is a liveness hint, Section IV-D — it is what lets pollers on
// weak-visibility backends eventually observe the value, the paper's
// reason for flush(f) in Fig. 6). CheckOpts rewrites the program ONCE and
// uses the result on both sides — the model explores it and the
// simulator executes it — because the added scopes are real
// synchronization the hardware performs. Comparing the execution against
// the bare program's model would be unsound in both
// directions: the wrapper's lock edges both forbid outcomes the bare
// model allows and allow outcomes it forbids (a thread re-reading a
// location it wrote bare may legitimately observe another thread's
// interleaved locked write, which the bare model's Definition 12 excludes).
// Bare reads execute as entry_ro/read/exit_ro, which for word-sized
// objects takes no lock and adds no model ordering, so they stay plain
// reads; awaits likewise poll through entry_ro and stay awaits.
func EffectiveProgram(p litmus.Program) litmus.Program {
	out := p
	out.Threads = make([]litmus.Thread, len(p.Threads))
	for ti, th := range p.Threads {
		open := map[string]bool{}
		var eff litmus.Thread
		for _, in := range th {
			switch in.Kind {
			case litmus.IAcquire:
				open[in.Loc] = true
			case litmus.IRelease:
				delete(open, in.Loc)
			case litmus.IWrite:
				if !open[in.Loc] {
					eff = append(eff,
						litmus.Acquire(in.Loc),
						litmus.Write(in.Loc, in.Val),
						litmus.Flush(in.Loc),
						litmus.Release(in.Loc),
					)
					continue
				}
			case litmus.IWriteBlock:
				// A bare block write gets the same scope-plus-flush
				// wrapper as a bare word write.
				if !open[in.Loc] {
					eff = append(eff,
						litmus.Acquire(in.Loc),
						litmus.WriteBlock(in.Loc, in.Val),
						litmus.Flush(in.Loc),
						litmus.Release(in.Loc),
					)
					continue
				}
			}
			eff = append(eff, in)
		}
		out.Threads[ti] = eff
	}
	return out
}

// ExecuteRecorded runs one perturbed instance of an *effective* program
// (callers pass EffectiveProgram output, exactly like CheckOpts does
// internally) with a model recorder attached, returning the canonical
// outcome and the recorder-lowered per-word execution. The recorder
// verifies every read against the model as the run unfolds; its first
// violation surfaces as the returned error, with the partial execution
// still attached for diagnosis. It is CheckOpts' traced run on its own,
// for callers that inspect one execution.
func ExecuteRecorded(prog litmus.Program, backend string, opt Options, seed uint32) (string, *core.Execution, error) {
	return run(prog, backend, opt, seed, true)
}

// run executes one perturbed instance of an *effective* program (see
// EffectiveProgram — every write already sits inside an explicit scope),
// with the model recorder attached when record is set, and returns its
// canonical outcome string.
func run(prog litmus.Program, backend string, opt Options, seed uint32, record bool) (string, *core.Execution, error) {
	cfg := soc.DefaultConfig()
	if opt.Base != nil {
		cfg = *opt.Base
	}
	cfg.Tiles = opt.Tiles
	cfg.MaxCycles = opt.MaxCycles
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 20_000_000
	}
	sys, err := soc.New(cfg)
	if err != nil {
		return "", nil, err
	}
	mixed := backend == MixedBackend
	def := backend
	if mixed {
		// Mixed runs default unplaced locations to the uncached
		// sequentially-consistent reference route.
		def = "nocc"
	}
	b, err := rt.ByName(def)
	if err != nil {
		return "", nil, err
	}
	// A healthy run allocates a placed object on its backend's name, and
	// rt registers that route on first use. Under faults every route is
	// wrapped up front: routes maps each placed name to its wrapper's
	// decorated name, and the wrappers are registered as extra routes
	// (once each, so a placement on nocc shares the default route).
	var extra []rt.Backend
	var routes map[string]string
	if opt.Faults.Enabled() {
		b = rt.InjectFaults(b, opt.Faults)
		routes = map[string]string{}
		registered := map[string]bool{b.Name(): true}
		for _, name := range prog.Locs {
			pb := prog.Placement[name]
			if !mixed || pb == "" || routes[pb] != "" {
				continue
			}
			fb, err := rt.ByName(pb)
			if err != nil {
				return "", nil, err
			}
			fb = rt.InjectFaults(fb, opt.Faults)
			routes[pb] = fb.Name()
			if !registered[fb.Name()] {
				registered[fb.Name()] = true
				extra = append(extra, fb)
			}
		}
	}
	r := rt.New(sys, b, extra...)
	var rec *rt.Recorder
	if record {
		// Attached before allocation so every object is recorded.
		rec = rt.NewRecorder(r)
	}
	objs := make(map[string]*rt.Object, len(prog.Locs))
	for _, name := range prog.Locs {
		if pb := prog.Placement[name]; mixed && pb != "" {
			if rn := routes[pb]; rn != "" {
				pb = rn
			}
			objs[name] = r.AllocOn(name, 4*prog.WidthOf(name), pb)
		} else {
			objs[name] = r.Alloc(name, 4*prog.WidthOf(name))
		}
	}
	// Collected host-side (no sim cost). The kernel runs one thread at a
	// time, so the threads write the map without synchronization.
	regs := map[string]uint32{}
	for ti, th := range prog.Threads {
		ti, th := ti, th
		// Deterministic per-thread perturbation derived from the seed.
		h := seed*2654435761 + uint32(ti)*40503 + 1
		stagger := int(h % 97)
		backoff := int(h/97%23) + 1
		r.Spawn(ti, fmt.Sprintf("t%d", ti), func(c *rt.Ctx) {
			c.SetCodeFootprint(1024)
			c.Compute(1 + stagger)
			// The effective program puts every write inside an explicit
			// entry/exit scope; bare reads run through an entry_ro pair,
			// which for word-sized objects adds no model ordering.
			open := map[string]bool{}
			for _, in := range th {
				switch in.Kind {
				case litmus.IWrite:
					c.Write32(objs[in.Loc], 0, uint32(in.Val))
				case litmus.IWriteBlock:
					w := prog.WidthOf(in.Loc)
					buf := make([]uint32, w)
					for k := range buf {
						buf[k] = uint32(in.Val) + uint32(k)
					}
					c.WriteBlock(objs[in.Loc], 0, buf)
				case litmus.IReadBlock:
					w := prog.WidthOf(in.Loc)
					buf := make([]uint32, w)
					if open[in.Loc] {
						c.ReadBlock(objs[in.Loc], 0, buf)
					} else {
						c.EntryRO(objs[in.Loc])
						c.ReadBlock(objs[in.Loc], 0, buf)
						c.ExitRO(objs[in.Loc])
					}
					if in.Reg != "" {
						for k, v := range buf {
							regs[litmus.WordReg(in.Reg, k)] = v
						}
					}
				case litmus.IRead:
					var v uint32
					if open[in.Loc] {
						v = c.Read32(objs[in.Loc], 0)
					} else {
						c.EntryRO(objs[in.Loc])
						v = c.Read32(objs[in.Loc], 0)
						c.ExitRO(objs[in.Loc])
					}
					if in.Reg != "" {
						regs[in.Reg] = v
					}
				case litmus.IAcquire:
					c.EntryX(objs[in.Loc])
					open[in.Loc] = true
				case litmus.IRelease:
					c.ExitX(objs[in.Loc])
					delete(open, in.Loc)
				case litmus.IFence:
					if in.Loc != "" {
						c.FenceObj(objs[in.Loc])
					} else {
						c.Fence()
					}
				case litmus.IFlush:
					c.Flush(objs[in.Loc])
				case litmus.IAwaitEq:
					for {
						c.EntryRO(objs[in.Loc])
						v := c.Read32(objs[in.Loc], 0)
						c.ExitRO(objs[in.Loc])
						if v == uint32(in.Val) {
							if in.Reg != "" {
								regs[in.Reg] = v
							}
							break
						}
						c.Compute(backoff)
					}
				}
			}
		})
	}
	err = r.Run()
	// The outcome lives in regs and the execution in the recorder, so the
	// system's buffers can serve the next run, failed or not.
	sys.Recycle()
	if err != nil {
		return "", nil, err
	}
	outcome := canonical(regs)
	if rec != nil {
		if err := rec.Err(); err != nil {
			return outcome, rec.Exec, err
		}
		return outcome, rec.Exec, nil
	}
	return outcome, nil, nil
}

// canonical matches the litmus explorer's outcome rendering.
func canonical(regs map[string]uint32) string {
	if len(regs) == 0 {
		return "(no observations)"
	}
	keys := make([]string, 0, len(regs))
	for k := range regs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, regs[k])
	}
	return strings.Join(parts, " ")
}
