package conform

import (
	"runtime"
	"testing"

	"pmc/internal/core"
	"pmc/internal/litmus"
	"pmc/internal/rt"
)

// TestAllBackendsConformOnCatalog is the headline conformance matrix:
// every cataloged litmus program, on every backend, under many timing
// perturbations, never produces an outcome the PMC model forbids.
func TestAllBackendsConformOnCatalog(t *testing.T) {
	progs := []string{
		"fig1-unsynchronized", "fig5-annotated", "fig5-no-acquire",
		"fig5-scoped-fence", "sb-bare", "sb-drf", "corr", "corw", "cowr",
		"mutex-counter", "lb", "iriw-3t", "mp-block",
	}
	for _, backend := range rt.Backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for _, name := range progs {
				prog, ok := litmus.ByName(name)
				if !ok {
					t.Fatalf("program %s missing", name)
				}
				rep, err := CheckOpts(prog, backend, Options{Tiles: 4, Runs: 6})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !rep.Ok() {
					t.Errorf("%s", rep)
				}
			}
		})
	}
}

// TestAnnotatedProgramsAreDeterministic: for the fully annotated programs
// the model admits exactly one outcome, so every perturbed simulator run
// must produce it.
func TestAnnotatedProgramsAreDeterministic(t *testing.T) {
	for _, name := range []string{"fig5-annotated", "fig5-scoped-fence", "wrc-drf"} {
		prog, ok := litmus.ByName(name)
		if !ok {
			t.Fatalf("program %s missing", name)
		}
		for _, backend := range []string{"swcc", "dsm"} {
			rep, err := CheckOpts(prog, backend, Options{Tiles: 4, Runs: 8})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, backend, err)
			}
			if !rep.Ok() {
				t.Fatalf("%s", rep)
			}
			if len(rep.Observed) != 1 {
				t.Errorf("%s on %s: %d distinct outcomes, want 1 (%v)",
					name, backend, len(rep.Observed), rep.Observed)
			}
		}
	}
}

// TestPerturbationsExploreOutcomes: for a racy program the perturbed runs
// should reach more than one outcome on at least one backend — otherwise
// the conformance sampling is vacuous.
func TestPerturbationsExploreOutcomes(t *testing.T) {
	prog, _ := litmus.ByName("mutex-counter")
	distinct := map[string]bool{}
	for _, backend := range rt.Backends {
		rep, err := CheckOpts(prog, backend, Options{Tiles: 4, Runs: 10})
		if err != nil {
			t.Fatal(err)
		}
		for o := range rep.Observed {
			distinct[o] = true
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("perturbation sweep found only %v — sampling too weak", distinct)
	}
}

// TestSPMAnnotatedProgramsAreDeterministic mirrors
// TestAnnotatedProgramsAreDeterministic for the scratch-pad staging
// backend: copy-in/copy-out must preserve the single allowed outcome.
func TestSPMAnnotatedProgramsAreDeterministic(t *testing.T) {
	for _, name := range []string{"fig5-annotated", "fig5-scoped-fence", "wrc-drf"} {
		prog, ok := litmus.ByName(name)
		if !ok {
			t.Fatalf("program %s missing", name)
		}
		rep, err := CheckOpts(prog, "spm", Options{Tiles: 4, Runs: 8})
		if err != nil {
			t.Fatalf("%s on spm: %v", name, err)
		}
		if !rep.Ok() {
			t.Fatalf("%s", rep)
		}
		if len(rep.Observed) != 1 {
			t.Errorf("%s on spm: %d distinct outcomes, want 1 (%v)",
				name, len(rep.Observed), rep.Observed)
		}
	}
}

// TestCheckSeedReproducible: the same base seed yields the same Observed
// map (bit-for-bit), and the seed is recorded in the report, so any
// violation line is reproducible from test output alone.
func TestCheckSeedReproducible(t *testing.T) {
	prog, _ := litmus.ByName("mutex-counter")
	opt := Options{Tiles: 4, Runs: 8, Seed: 12345}
	a, err := CheckOpts(prog, "swcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CheckOpts(prog, "swcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed != 12345 || b.Seed != 12345 {
		t.Fatalf("seed not recorded: %d, %d", a.Seed, b.Seed)
	}
	if len(a.Observed) != len(b.Observed) {
		t.Fatalf("same seed, different outcome sets: %v vs %v", a.Observed, b.Observed)
	}
	for o, n := range a.Observed {
		if b.Observed[o] != n {
			t.Fatalf("same seed, different counts for %q: %d vs %d", o, n, b.Observed[o])
		}
	}
	// The zero Seed is the historical schedule, base seed 0.
	c, err := CheckOpts(prog, "swcc", Options{Tiles: 4, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 0 {
		t.Fatalf("zero Seed recorded as base seed %d", c.Seed)
	}
}

// TestCheckSeedsShiftSampling: different base seeds perturb differently —
// across a spread of seeds the racy program must reach more than one
// outcome, otherwise the seed plumbing is dead.
func TestCheckSeedsShiftSampling(t *testing.T) {
	prog, _ := litmus.ByName("mutex-counter")
	distinct := map[string]bool{}
	for _, seed := range []int64{0, 1000, 2000, 3000} {
		rep, err := CheckOpts(prog, "nocc", Options{Tiles: 4, Runs: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for o := range rep.Observed {
			distinct[o] = true
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("seed spread found only %v", distinct)
	}
}

// TestEffectiveProgram: bare writes get scope+flush wrapping, scoped
// accesses are untouched, and the rewrite is what reconciles the cowr
// shape (the executed program's lock ordering legitimately lets the
// writer re-read the remote value, which the bare model forbids).
func TestEffectiveProgram(t *testing.T) {
	p := litmus.Program{
		Name: "wrap",
		Locs: []string{"X", "Y"},
		Threads: []litmus.Thread{{
			litmus.Write("X", 1),                                           // bare: wrapped
			litmus.Acquire("Y"), litmus.Write("Y", 2), litmus.Release("Y"), // scoped: untouched
		}},
	}
	eff := EffectiveProgram(p)
	want := litmus.Thread{
		litmus.Acquire("X"), litmus.Write("X", 1), litmus.Flush("X"), litmus.Release("X"),
		litmus.Acquire("Y"), litmus.Write("Y", 2), litmus.Release("Y"),
	}
	if len(eff.Threads[0]) != len(want) {
		t.Fatalf("wrapped thread has %d instructions, want %d", len(eff.Threads[0]), len(want))
	}
	for i, in := range eff.Threads[0] {
		if in != want[i] {
			t.Fatalf("instruction %d: %+v, want %+v", i, in, want[i])
		}
	}

	// cowr: the bare model pins r1 to the thread's own write; the
	// effective model admits the remote value too. Only the latter is a
	// sound baseline for the executed program.
	cowr, _ := litmus.ByName("cowr")
	bare, err := litmus.Explore(cowr)
	if err != nil {
		t.Fatal(err)
	}
	effRes, err := litmus.Explore(EffectiveProgram(cowr))
	if err != nil {
		t.Fatal(err)
	}
	if bare.HasOutcome("r1=2") {
		t.Fatal("bare cowr model unexpectedly allows r1=2; Definition 12 changed?")
	}
	if !effRes.HasOutcome("r1=2") || !effRes.HasOutcome("r1=1") {
		t.Fatalf("effective cowr model missing outcomes: %v", effRes.OutcomeList())
	}
}

// TestCheckRejectsTooFewTiles guards the API.
func TestCheckRejectsTooFewTiles(t *testing.T) {
	prog, _ := litmus.ByName("iriw") // 4 threads
	if _, err := CheckOpts(prog, "swcc", Options{Tiles: 2, Runs: 1}); err == nil {
		t.Fatal("4 threads on 2 tiles not rejected")
	}
}

// TestFaultsReachMixedRoutes: under MixedBackend a fault wraps every
// route the run allocates on, the placed ones included. The counter lives
// on swcc, so skipping its exit flush loses an update; a second location
// placed on nocc shares the faulted default route.
func TestFaultsReachMixedRoutes(t *testing.T) {
	prog := litmus.MutexCounter()
	prog.Locs = append(prog.Locs, "D")
	prog.Threads[0] = append(prog.Threads[0], litmus.Write("D", 1))
	prog.Placement = map[string]string{"C": "swcc", "D": "nocc"}
	rep, err := CheckOpts(prog, MixedBackend, Options{Tiles: 2, Runs: 4, Faults: rt.FaultSet{SkipExitFlush: true}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatalf("swcc-placed counter with release-without-flush conformed: %s", rep)
	}
	healthy, err := CheckOpts(prog, MixedBackend, Options{Tiles: 2, Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !healthy.Ok() {
		t.Fatalf("healthy mixed run violated the model: %s", healthy)
	}
}

// TestFindingString pins the one renderer every check's verdict goes
// through, per kind, with the text spec.CheckBackend reports: a failed run
// or rejected read and an outcome carry their seed, an edge or spec problem
// is the bare problem text.
func TestFindingString(t *testing.T) {
	for _, c := range []struct {
		f    Finding
		want string
	}{
		{Finding{Seed: 1, Kind: "run", Detail: "sim: watchdog: time 2000032 exceeds MaxTime 2000000"},
			"sim: watchdog: time 2000032 exceeds MaxTime 2000000 (seed 1)"},
		{Finding{Seed: 0, Kind: "read", Detail: "rt: 1 model violations; first: tile 1 read X[0] = 0 at cycle 525: value not readable under the PMC model (readable: [42])"},
			"rt: 1 model violations; first: tile 1 read X[0] = 0 at cycle 525: value not readable under the PMC model (readable: [42]) (seed 0)"},
		{Finding{Seed: 3, Kind: "outcome", Detail: "r0=0 r1=0"},
			`"r0=0 r1=0" is model-forbidden (seed 3)`},
		{Finding{Seed: 2, Kind: "edge", Detail: "edge #0 init(v0=⊥) —≺S→ #2 (A,p0,v0) committed by no declared obligation"},
			"edge #0 init(v0=⊥) —≺S→ #2 (A,p0,v0) committed by no declared obligation"},
		{Finding{Kind: "spec", Detail: "spec nocc: Table I rule r→w ≺l (p) is committed by no step (incomplete)"},
			"spec nocc: Table I rule r→w ≺l (p) is committed by no step (incomplete)"},
	} {
		if got := c.f.String(); got != c.want {
			t.Errorf("%s finding renders\n%s\nwant\n%s", c.f.Kind, got, c.want)
		}
	}
}

// TestReportString: a report lists each forbidden outcome once, with the
// seed of the first run that produced it, and only outcome findings make
// it fail.
func TestReportString(t *testing.T) {
	rep := &Report{
		Program: "sb", Backend: "nocc", Runs: 4, Seed: 7,
		Allowed:  []string{"r0=1"},
		Observed: map[string]int{"r0=1": 1, "r0=0": 2, "r0=2": 1},
		Findings: []Finding{
			{Seed: 7, Kind: "outcome", Detail: "r0=0"},
			{Seed: 8, Kind: "read", Detail: "rt: stale read"},
			{Seed: 9, Kind: "outcome", Detail: "r0=0"},
			{Seed: 10, Kind: "outcome", Detail: "r0=2"},
		},
	}
	want := `sb on nocc: 4 runs (base seed 7), 1/1 allowed outcomes observed; VIOLATIONS: ["r0=0" (seed 7) "r0=2" (seed 10)]`
	if got := rep.String(); got != want || rep.Ok() {
		t.Errorf("report renders (ok=%v)\n%s\nwant\n%s", rep.Ok(), got, want)
	}
	rep.Findings = []Finding{{Seed: 8, Kind: "read", Detail: "rt: stale read"}, {Seed: 9, Kind: "edge", Detail: "edge"}}
	rep.Observed = map[string]int{"r0=1": 1}
	want = "sb on nocc: 4 runs (base seed 7), 1/1 allowed outcomes observed"
	if got := rep.String(); got != want || !rep.Ok() {
		t.Errorf("report without forbidden outcomes renders (ok=%v)\n%s\nwant\n%s", rep.Ok(), got, want)
	}
}

// TestCheckedPairBytes bounds the bytes one checked pair allocates once
// the free lists are warm: sb-drf on swcc, three recorded runs on three
// tiles. Each run builds a system and a recorder; recycling hands the
// previous run's memory chunks, cache arrays, timing wheel and execution
// buffers to the next, so a pair costs about 60 KB where building each
// run from fresh allocations cost about 210 KB.
func TestCheckedPairBytes(t *testing.T) {
	const pairs, limit = 50, 100_000
	prog, ok := litmus.ByName("sb-drf")
	if !ok {
		t.Fatal("sb-drf missing")
	}
	opt := Options{Tiles: 3, Runs: 3, Trace: func(*core.Execution) []string { return nil }}
	check := func() {
		if _, err := CheckOpts(prog, "swcc", opt); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		check()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range pairs {
		check()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / pairs; got > limit {
		t.Fatalf("a checked pair allocated %d B, want at most %d", got, limit)
	}
}
