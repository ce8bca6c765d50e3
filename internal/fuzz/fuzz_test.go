package fuzz

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pmc/internal/conform"
	"pmc/internal/litmus"
	"pmc/internal/rt"
)

// TestCampaignHealthyBackends is the headline acceptance run: a seeded
// 500-program campaign across the paper's four backends completes with
// zero model violations and zero execution errors — the generated
// scenario space stays inside the PMC envelope on every architecture.
func TestCampaignHealthyBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("500-program campaign")
	}
	sum, err := Run(Config{Seed: 1, N: 500, Gen: GenConfig{Mode: ModeMixed}, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Ok() {
		t.Fatalf("campaign not clean:\n%s", sum)
	}
	if sum.SkippedStuck != 0 {
		t.Fatalf("generator produced %d deadlockable programs", sum.SkippedStuck)
	}
	if sum.Unique < 400 || sum.Checked < sum.Unique*3 {
		t.Fatalf("campaign coverage collapsed: %d unique, %d checked", sum.Unique, sum.Checked)
	}
}

// TestCampaignCatchesInjectedFault runs the same seeded campaign against
// an swcc backend with the exit-flush protocol step disabled
// (release-without-flush): the fuzzer must detect model violations and
// the shrinker must reduce one to a counterexample of at most 8
// instructions.
func TestCampaignCatchesInjectedFault(t *testing.T) {
	if testing.Short() {
		t.Skip("500-program campaign")
	}
	sum, err := Run(Config{
		Seed: 1, N: 500, Gen: GenConfig{Mode: ModeMixed}, Runs: 2,
		Backends:  []string{"swcc"},
		Shrink:    true,
		MaxShrink: 3,
		Faults:    rt.FaultSet{SkipExitFlush: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Fatal("fault-injected swcc produced no violations: the fuzzer is blind")
	}
	best := 1 << 30
	for _, v := range sum.Violations {
		if v.Shrunk == nil {
			continue
		}
		if n := litmus.InstrCount(*v.Shrunk); n < best {
			best = n
		}
		// The shrunk program must itself still violate.
		if v.ShrunkReport == nil || v.ShrunkReport.Ok() {
			t.Errorf("seed %d: shrunk program no longer violates", v.Seed)
		}
	}
	if best > 8 {
		t.Fatalf("no violation shrank to <= 8 instructions (best %d)", best)
	}
	// The whole summary, shrunk counterexamples included, is pinned.
	if got := digest(sum.String()); got != "8475dec87ea86c19" {
		t.Errorf("summary digest %s changed:\n%s", got, sum)
	}
}

// digest is the first 16 hex digits of the SHA-256 of s.
func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }

// TestGenerateDeterministic: the same seed always yields the same program,
// and nearby seeds yield different ones.
func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Mode: ModeMixed}
	a := Generate(42, cfg)
	b := Generate(42, cfg)
	if Render(a) != Render(b) || litmus.Fingerprint(a) != litmus.Fingerprint(b) {
		t.Fatal("same seed generated different programs")
	}
	distinct := map[string]bool{}
	for s := int64(0); s < 20; s++ {
		distinct[litmus.Fingerprint(Generate(s, cfg))] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("20 seeds produced only %d distinct programs", len(distinct))
	}
}

// TestGeneratedProgramsAreValid: every generated program passes the
// explorer's static validation in all modes, has at least one observed
// register, and never nests or leaks scopes.
func TestGeneratedProgramsAreValid(t *testing.T) {
	for _, mode := range []Mode{ModeDRF, ModeRacy, ModeMixed} {
		for s := int64(0); s < 60; s++ {
			p := Generate(s, GenConfig{Mode: mode})
			x := litmus.NewExplorer(conform.EffectiveProgram(p))
			x.Workers = 1
			x.MaxStates = 300_000
			res, err := x.Run()
			if err != nil && !isBudget(err) {
				t.Fatalf("mode %s seed %d invalid: %v\n%s", mode, s, err, Render(p))
			}
			if err == nil && res.Stuck > 0 {
				t.Fatalf("mode %s seed %d can deadlock:\n%s", mode, s, Render(p))
			}
			if !hasObservation(p) {
				t.Fatalf("mode %s seed %d has no observable register", mode, s)
			}
		}
	}
}

// TestDRFModeIsAnnotated: DRF-mode programs keep every data access
// inside a scope; bare instructions are only flag writes and awaits.
func TestDRFModeIsAnnotated(t *testing.T) {
	for s := int64(0); s < 60; s++ {
		p := Generate(s, GenConfig{Mode: ModeDRF})
		for ti, th := range p.Threads {
			open := map[string]bool{}
			for _, in := range th {
				switch in.Kind {
				case litmus.IAcquire:
					open[in.Loc] = true
				case litmus.IRelease:
					delete(open, in.Loc)
				case litmus.IRead:
					if !open[in.Loc] {
						t.Fatalf("seed %d T%d: bare read of %s in DRF mode\n%s", s, ti, in.Loc, Render(p))
					}
				case litmus.IWrite:
					if !open[in.Loc] && !strings.HasPrefix(in.Loc, "f") {
						t.Fatalf("seed %d T%d: bare data write of %s in DRF mode\n%s", s, ti, in.Loc, Render(p))
					}
				}
			}
		}
	}
}

// TestShrinkMinimizesKnownCounterexample drives the shrinker with a pure
// model-level repro (no simulator): starting from the fully annotated
// fig5 program padded with noise, minimize while "the model forbids the
// stale read" keeps holding. The shrinker must strip the noise and the
// fences (the release→acquire sync edge alone pins the outcome) but keep
// the acquire/release pairs and the await.
func TestShrinkMinimizesKnownCounterexample(t *testing.T) {
	p := litmus.Program{
		Name: "shrink-mp",
		Locs: []string{"X", "f", "junk"},
		Threads: []litmus.Thread{
			{
				litmus.Write("junk", 7),
				litmus.Acquire("X"), litmus.Write("X", 42), litmus.Fence(), litmus.Release("X"),
				litmus.Write("f", 1),
			},
			{
				litmus.AwaitEq("f", 1, ""), litmus.Fence(),
				litmus.Acquire("X"), litmus.Read("X", "rX"), litmus.Release("X"),
			},
			{
				litmus.Read("junk", "rj"),
			},
		},
	}
	repro := func(c litmus.Program) bool {
		x := litmus.NewExplorer(conform.EffectiveProgram(c))
		x.Workers = 1
		x.MaxStates = 300_000
		res, err := x.Run()
		if err != nil || res.Stuck > 0 {
			return false
		}
		// Failure being minimized: a reader that observes rX and can
		// only ever observe 42.
		sawRX := false
		for _, o := range res.OutcomeList() {
			if strings.Contains(o, "rX=") {
				sawRX = true
				if !strings.Contains(o, "rX=42") {
					return false
				}
			}
		}
		return sawRX
	}
	if !repro(p) {
		t.Fatal("initial program does not reproduce")
	}
	min, steps := Shrink(p, repro)
	if steps == 0 {
		t.Fatal("shrinker accepted nothing")
	}
	if n := litmus.InstrCount(min); n > 8 {
		t.Fatalf("shrunk to %d instructions, want <= 8:\n%s", n, Render(min))
	}
	if len(min.Threads) != 2 {
		t.Fatalf("noise thread not dropped:\n%s", Render(min))
	}
	for _, th := range min.Threads {
		for _, in := range th {
			if in.Kind == litmus.IFence {
				t.Fatalf("redundant fence survived:\n%s", Render(min))
			}
			if in.Loc == "junk" {
				t.Fatalf("junk location survived:\n%s", Render(min))
			}
		}
	}
	// Pair discipline: acquires and releases stay matched.
	if err := exploreErr(min); err != nil {
		t.Fatalf("shrunk program invalid: %v", err)
	}
}

func exploreErr(p litmus.Program) error {
	x := litmus.NewExplorer(p)
	x.Workers = 1
	_, err := x.Run()
	return err
}

// TestShrinkPairsStayMatched: dropping an acquire always drops its
// matching release (and vice versa), even across interleaved scopes.
func TestShrinkDropInstrPairs(t *testing.T) {
	p := litmus.Program{
		Name: "pairs",
		Locs: []string{"A", "B"},
		Threads: []litmus.Thread{{
			litmus.Acquire("A"), litmus.Write("A", 1),
			litmus.Acquire("B"), litmus.Write("B", 1), litmus.Release("B"),
			litmus.Release("A"),
		}},
	}
	cand, ok := dropInstr(p, 0, 0) // drop Acquire(A)
	if !ok {
		t.Fatal("dropInstr failed")
	}
	for _, in := range cand.Threads[0] {
		if in.Kind == litmus.IRelease && in.Loc == "A" {
			t.Fatal("Release(A) survived dropping Acquire(A)")
		}
		if in.Kind == litmus.IAcquire && in.Loc == "B" {
			return // B's scope intact
		}
	}
	t.Fatal("B scope was damaged")
}

// TestSummaryDeterministicAcrossWorkers: the campaign summary is identical
// for 1 worker and many.
func TestSummaryDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		sum, err := Run(Config{Seed: 7, N: 40, Gen: GenConfig{Mode: ModeMixed}, Runs: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return sum.String()
	}
	if a, b := run(1), run(8); a != b {
		t.Fatalf("worker count changed the summary:\n%s\nvs\n%s", a, b)
	}
}

// TestCampaignReproducibleFromPrintedSeed: a violation found at Seed+i is
// found again by a 1-program campaign at that seed — the printed seed is
// all a reproduction needs.
func TestCampaignReproducibleFromPrintedSeed(t *testing.T) {
	faulty := rt.FaultSet{SkipExitFlush: true}
	sum, err := Run(Config{
		Seed: 1, N: 120, Gen: GenConfig{Mode: ModeMixed}, Runs: 2,
		Backends: []string{"swcc"}, Faults: faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Skip("no violation in the first 120 programs")
	}
	v := sum.Violations[0]
	again, err := Run(Config{
		Seed: v.Seed, N: 1, Gen: GenConfig{Mode: ModeMixed}, Runs: 2,
		Backends: []string{"swcc"}, Faults: faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Violations) != 1 || again.Violations[0].Report.String() != v.Report.String() {
		t.Fatalf("seed %d did not reproduce the violation:\n%v\nvs\n%v", v.Seed, again.Violations, v.Report)
	}
}

// TestCampaignSpecCheck: a seeded campaign with spec-trace checking on —
// including mixed-routing programs, whose traces are attributed to the
// union of the placed backends' specs — completes with every recorded
// trace fully committed by the declared specs.
func TestCampaignSpecCheck(t *testing.T) {
	sum, err := Run(Config{
		Seed: 11, N: 60, Gen: GenConfig{Mode: ModeMixed}, Runs: 1,
		Backends:  []string{"swcc", "dsm", conform.MixedBackend},
		SpecCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Ok() {
		t.Fatalf("campaign not clean:\n%s", sum)
	}
	if sum.SpecChecked == 0 {
		t.Fatal("SpecCheck ran no trace checks")
	}
	if sum.SpecChecked != sum.Checked {
		t.Errorf("spec-checked %d of %d checked pairs", sum.SpecChecked, sum.Checked)
	}
	if got := digest(sum.String()); got != "ae3fc20235fd66e0" {
		t.Errorf("summary digest %s changed:\n%s", got, sum)
	}
}

// TestFaultedCampaignSpecChecks: a fault leaves the backend's name, and so
// its spec, known, so a faulted SpecCheck campaign records every run. The
// stale reads the recorder rejects are run errors; the pairs it accepts
// are spec-checked.
func TestFaultedCampaignSpecChecks(t *testing.T) {
	sum, err := Run(Config{
		Seed: 1, N: 20, Gen: GenConfig{Mode: ModeMixed}, Runs: 2,
		Backends:  []string{"swcc"},
		Faults:    rt.FaultSet{SkipExitFlush: true},
		SpecCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.SpecChecked == 0 || sum.SpecChecked != sum.Checked {
		t.Errorf("spec-checked %d of %d checked pairs, want all and at least one", sum.SpecChecked, sum.Checked)
	}
	if len(sum.Errors) == 0 {
		t.Errorf("recorder rejected no stale read:\n%s", sum)
	}
}

// TestRecordingIsInvisible is the oracle behind recording every perturbed
// run: the recorder costs no simulated time, so over generated
// mixed-mode programs on every campaign backend a traced check observes
// exactly the outcomes and violations of an untraced one.
func TestRecordingIsInvisible(t *testing.T) {
	cfg := Config{
		Seed: 101, Gen: GenConfig{Mode: ModeMixed},
		Backends:  []string{"nocc", "swcc", "dsm", "spm", conform.MixedBackend},
		SpecCheck: true,
	}.withDefaults()
	checked := 0
	for i := int64(0); checked < 100; i++ {
		seed := cfg.Seed + i
		p := Generate(seed, cfg.Gen)
		model, err := explore(p, cfg.MaxStates)
		if err != nil || model.Stuck > 0 {
			continue
		}
		checked++
		for _, backend := range cfg.Backends {
			traced, err := checkOptions(cfg, p, backend, seed, model)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Trace == nil {
				t.Fatal("SpecCheck options carry no trace check")
			}
			plain := traced
			plain.Trace = nil
			want, err := conform.CheckOpts(p, backend, plain)
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, backend, err)
			}
			got, err := conform.CheckOpts(p, backend, traced)
			if err != nil {
				t.Fatalf("seed %d on %s, traced: %v", seed, backend, err)
			}
			if !reflect.DeepEqual(got.Observed, want.Observed) || !reflect.DeepEqual(got.Violations, want.Violations) {
				t.Fatalf("seed %d on %s: recording changed the run:\ntraced   %v %v\nuntraced %v %v",
					seed, backend, got.Observed, got.Violations, want.Observed, want.Violations)
			}
		}
	}
}
