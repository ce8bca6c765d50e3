package main

import (
	"errors"
	"fmt"
	"time"

	"pmc/internal/conform"
	"pmc/internal/core"
	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/spec"
)

// The fuzz campaign's settings: the mixed annotation discipline checked
// on the paper's four backends plus per-location routing, three timing
// perturbations per pair, and every pair's recorded trace checked against
// its ordering spec.
const (
	fuzzWorkers   = 2
	fuzzTiles     = 3 // the generator's default thread cap; threads map 1:1 onto tiles
	fuzzRuns      = 3
	fuzzMaxCycles = 400_000
	// fuzzMaxStates caps each program's exploration. Exploration cost
	// grows faster than its state count, and at the campaign default of
	// 300k states about one program in three hundred takes seconds: the
	// measured rate would then depend on which rare programs a seed
	// draws. Programs over the cap are skipped and counted as the campaign
	// does, after paying for the exploration up to it.
	fuzzMaxStates = 5000
	// exactPrefix is how many leading programs the exact per-layer counts
	// cover, so that they repeat exactly for a seed whatever the run
	// length.
	exactPrefix = 64
)

var fuzzBackends = []string{"nocc", "swcc", "dsm", "spm", conform.MixedBackend}

// fuzzWork is the campaign's input: unique programs of a seeded sequence,
// in campaign order.
type fuzzWork struct {
	gen   fuzz.GenConfig
	progs []fuzzProg
	// prefixGenerated is how many programs were generated to collect the
	// first exactPrefix programs of the campaign (or all of them, if
	// fewer), and prefixUnique how many of those were unique.
	prefixGenerated, prefixUnique int
}

type fuzzProg struct {
	seed int64
	prog litmus.Program
	fp   string // canonical fingerprint
}

// newFuzzWork generates and deduplicates programs the way fuzz.Run does
// (program i comes from seed base+i; repeats of a canonical fingerprint
// are dropped) and keeps n of them, alternating two- and three-thread
// programs. A program's cost depends mostly on its thread count: a
// three-thread program takes about seven times as long to check. Fixing
// the mix at one to one, about what the generator draws, keeps a run's
// work from depending on how many of each its seed happens to draw.
func newFuzzWork(seed int64, n int) *fuzzWork {
	w := &fuzzWork{gen: fuzz.GenConfig{Mode: fuzz.ModeMixed, MaxThreads: fuzzTiles, BackendPool: fuzz.DefaultBackends}}
	var (
		seen      = make(map[string]bool, n)
		byThreads [2][]fuzzProg // two- and three-thread programs
		want      = [2]int{(n + 1) / 2, n / 2}
		prefix    = [2]int{(min(n, exactPrefix) + 1) / 2, min(n, exactPrefix) / 2}
		base      = seed * 1_000_000
	)
	for i := 0; len(byThreads[0]) < want[0] || len(byThreads[1]) < want[1]; i++ {
		s := base + int64(i)
		p := fuzz.Generate(s, w.gen)
		fp := litmus.Fingerprint(p)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		if k := len(p.Threads) - 2; len(byThreads[k]) < want[k] {
			byThreads[k] = append(byThreads[k], fuzzProg{seed: s, prog: p, fp: fp})
		}
		if w.prefixGenerated == 0 && len(byThreads[0]) >= prefix[0] && len(byThreads[1]) >= prefix[1] {
			w.prefixGenerated, w.prefixUnique = i+1, len(seen)
		}
	}
	for i := 0; i < n; i++ {
		w.progs = append(w.progs, byThreads[i%2][i/2])
	}
	return w
}

// config is the engine's configuration for a campaign of one program.
func (w *fuzzWork) config(seed int64) fuzz.Config {
	return fuzz.Config{
		Seed: seed, N: 1, Gen: w.gen, Backends: fuzzBackends, Tiles: fuzzTiles,
		Runs: fuzzRuns, Workers: 1, MaxStates: fuzzMaxStates, MaxCycles: fuzzMaxCycles,
		SpecCheck: true,
	}
}

// fuzzTally is the part of a campaign summary one program determines.
type fuzzTally struct {
	unique, skippedBudget, skippedStuck int
	checked, specChecked                int
	violations, errors, divergences     int
}

func tallyOf(s *fuzz.Summary) fuzzTally {
	return fuzzTally{
		unique: s.Unique, skippedBudget: s.SkippedBudget, skippedStuck: s.SkippedStuck,
		checked: s.Checked, specChecked: s.SpecChecked,
		violations: len(s.Violations), errors: len(s.Errors), divergences: len(s.SpecDivergences),
	}
}

// problem says why a program's tally is not a clean check: every pair
// checked and spec-checked (or the program skipped over the state cap),
// and no violation, run error, spec divergence or deadlock.
func (t fuzzTally) problem() string {
	switch {
	case t.unique != 1:
		return fmt.Sprintf("%d unique programs, want 1", t.unique)
	case t.violations+t.errors+t.divergences+t.skippedStuck > 0:
		return fmt.Sprintf("%d violations, %d run errors, %d spec divergences, %d stuck",
			t.violations, t.errors, t.divergences, t.skippedStuck)
	case t.skippedBudget == 0 && (t.checked != len(fuzzBackends) || t.specChecked != len(fuzzBackends)):
		return fmt.Sprintf("%d pairs checked and %d spec-checked, want %d", t.checked, t.specChecked, len(fuzzBackends))
	}
	return ""
}

// The campaign is issued one program per fuzz.Run call, from two closed-
// loop workers, so that every program is timed. Deduplication happened
// while generating, as fuzz.Run does before its parallel phase.
func runFuzzCampaign(r *run) error {
	n := r.units()
	w, setups, err := setUpRepeatedly(func() (*fuzzWork, error) { return newFuzzWork(r.cfg.seed, n), nil }, func(*fuzzWork) {})
	if err != nil {
		return err
	}
	tallies := make([]fuzzTally, n)
	lat, errs, wall := closedLoop(fuzzWorkers, n, func(_, i int) error {
		sum, err := fuzz.Run(w.config(w.progs[i].seed))
		if err != nil {
			return err
		}
		tallies[i] = tallyOf(sum)
		return nil
	})
	r.attempted += n
	for i, err := range errs {
		if err != nil {
			r.fail(1, "program seed %d: %v", w.progs[i].seed, err)
		} else if p := tallies[i].problem(); p != "" {
			r.fail(1, "program seed %d: %s", w.progs[i].seed, p)
		}
	}
	if !r.cfg.traced {
		r.endToEnd(setups, lat, wall)
		return nil
	}
	return w.traced(r, tallies, lat)
}

// fuzzCounters are the explorer, conformance and spec work counts.
type fuzzCounters struct {
	explorations, states, pairs, simRuns, traces int
}

func (a *fuzzCounters) add(b fuzzCounters) {
	a.explorations += b.explorations
	a.states += b.states
	a.pairs += b.pairs
	a.simRuns += b.simRuns
	a.traces += b.traces
}

// tracedProgram re-executes fuzz.Run's steps for one program, each inside
// a span: Generate, Fingerprint, Explorer.Run, then per backend CheckOpts
// and the recorded run whose trace spec.CheckTrace attributes.
func (w *fuzzWork) tracedProgram(tr *tracer, lane int, p fuzzProg) (t fuzzTally, cnt fuzzCounters, err error) {
	root := tr.begin("fuzz.program", noSpan, p.seed, lane)
	defer tr.end(root)
	var (
		prog litmus.Program
		fp   string
	)
	tr.call("fuzz.generate", root, func() { prog = fuzz.Generate(p.seed, w.gen) })
	tr.call("litmus.fingerprint", root, func() { fp = litmus.Fingerprint(prog) })
	if fp != p.fp {
		return t, cnt, fmt.Errorf("regenerated program has fingerprint %.12s, want %.12s", fp, p.fp)
	}
	t.unique = 1 // a one-program campaign never meets a duplicate
	eff := conform.EffectiveProgram(prog)
	var model *litmus.Result
	tr.call("litmus.explore", root, func() {
		x := litmus.NewExplorer(eff)
		x.Workers = 1
		x.MaxStates = fuzzMaxStates
		model, err = x.Run()
	})
	cnt.explorations++
	if errors.Is(err, litmus.ErrBudget) {
		t.skippedBudget = 1
		return t, cnt, nil
	}
	if err != nil {
		return t, cnt, err
	}
	cnt.states += model.States
	if model.Stuck > 0 {
		t.skippedStuck = 1
		return t, cnt, nil
	}
	for _, b := range fuzzBackends {
		var rep *conform.Report
		tr.call("conform.check", root, func() {
			rep, err = conform.CheckOpts(prog, b, conform.Options{
				Tiles: fuzzTiles, Runs: fuzzRuns, Seed: p.seed, MaxCycles: fuzzMaxCycles, Model: model,
			})
		})
		cnt.pairs++
		cnt.simRuns += fuzzRuns
		if err != nil {
			t.errors++
			continue
		}
		t.checked++
		if !rep.Ok() {
			t.violations++
		}
		sc := tr.begin("spec.check", root, p.seed, lane)
		var diverged bool
		diverged, err = specCheck(tr, sc, prog, eff, b, p.seed)
		tr.end(sc)
		if err != nil {
			t.errors++
			continue
		}
		t.specChecked++
		cnt.traces++
		if diverged {
			t.divergences++
		}
	}
	return t, cnt, nil
}

// specCheck is the campaign's spec check of one pair: a recorded run of
// the effective program, every edge of whose trace must be committed by a
// declared ordering spec.
func specCheck(tr *tracer, parent int, prog, eff litmus.Program, backend string, seed int64) (diverged bool, err error) {
	specs, err := specsFor(prog, backend)
	if err != nil {
		return false, err
	}
	var exec *core.Execution
	tr.call("conform.execute_recorded", parent, func() {
		_, exec, err = conform.ExecuteRecorded(eff, backend, conform.Options{
			Tiles: fuzzTiles, Runs: 1, Seed: seed, MaxCycles: fuzzMaxCycles,
		}, uint32(seed))
	})
	if err != nil {
		return false, err
	}
	var probs []string
	tr.call("spec.check_trace", parent, func() { probs = spec.CheckTrace(exec, specs...) })
	return len(probs) > 0, nil
}

// specsFor returns the ordering specs a backend's recorded trace is
// checked against: its own, or for a mixed run the union of nocc (the
// default route) and every placed backend's.
func specsFor(p litmus.Program, backend string) ([]spec.Spec, error) {
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
	var specs []spec.Spec
	for _, n := range names {
		s, err := spec.ForBackend(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// traced re-executes the programs the engine checked, on the same number
// of workers, checks each decomposed tally against the engine's, and
// records the per-layer metrics.
func (w *fuzzWork) traced(r *run, engine []fuzzTally, engineLat []time.Duration) error {
	tr := newTracer()
	tallies := make([]fuzzTally, len(engine))
	cnts := make([]fuzzCounters, len(engine))
	var lat []time.Duration
	var errs []error
	err := tracedPhase(r.m, func() {
		lat, errs, _ = closedLoop(fuzzWorkers, len(engine), func(lane, i int) error {
			var err error
			tallies[i], cnts[i], err = w.tracedProgram(tr, lane, w.progs[i])
			return err
		})
	})
	if err != nil {
		return err
	}
	r.attempted += len(engine)
	var all, prefix fuzzCounters
	for i := range engine {
		switch {
		case errs[i] != nil:
			r.fail(1, "traced program seed %d: %v", w.progs[i].seed, errs[i])
		case tallies[i] != engine[i]:
			r.fail(1, "traced program seed %d: decomposed %+v, engine %+v", w.progs[i].seed, tallies[i], engine[i])
		}
		all.add(cnts[i])
		if i < exactPrefix {
			prefix.add(cnts[i])
		}
	}
	st := tr.stats()
	// Shares are self time over program time: the recorded run inside a
	// spec check counts for conform, the trace check for spec.
	prog := float64(st["fuzz.program"].total)
	explore := st["litmus.explore"]
	m := r.m
	m.set("fuzz.generated", float64(w.prefixGenerated), "count")
	m.set("fuzz.unique_ratio", ratio(float64(w.prefixUnique), float64(w.prefixGenerated)), "share")
	m.set("fuzz.generate_ms", st["fuzz.generate"].meanMs(), "ms")
	m.set("litmus.fingerprint_us", 1000*st["litmus.fingerprint"].meanMs(), "us")
	m.set("litmus.explorations", float64(prefix.explorations), "count")
	m.set("litmus.states", float64(prefix.states), "count")
	m.set("litmus.us_per_state", 1000*ratio(ms(explore.total), float64(all.states)), "us")
	m.set("litmus.explore_share", ratio(float64(explore.self), prog), "share")
	m.set("conform.pairs", float64(prefix.pairs), "count")
	m.set("conform.sim_runs", float64(prefix.simRuns), "count")
	m.set("conform.ms_per_pair", st["conform.check"].meanMs(), "ms")
	m.set("conform.share", ratio(float64(layerSelf(st, "conform")), prog), "share")
	m.set("spec.traces", float64(prefix.traces), "count")
	m.set("spec.ms_per_trace", st["spec.check"].meanMs(), "ms")
	m.set("spec.share", ratio(float64(layerSelf(st, "spec")), prog), "share")
	m.set("trace_overhead", traceOverhead(engineLat, lat), "ratio")
	r.note("counts cover the first %d unique programs; times cover all %d traced programs", min(exactPrefix, len(engine)), len(engine))
	if r.cfg.traceOut != "" {
		return tr.writeChrome(r.cfg.traceOut)
	}
	return nil
}
