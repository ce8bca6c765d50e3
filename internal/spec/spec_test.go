package spec

import (
	"reflect"
	"strings"
	"testing"

	"pmc/internal/conform"
	"pmc/internal/core"
	"pmc/internal/litmus"
	"pmc/internal/rt"
)

// TestSpecsCoverModel: every selectable backend has an authored spec that
// passes the spec-vs-model half — sound and complete over all 17 Table I
// rules — and the hierarchical backends are marked clustered.
func TestSpecsCoverModel(t *testing.T) {
	all := All()
	if len(all) != len(rt.Backends) {
		t.Fatalf("All() returned %d specs for %d backends", len(all), len(rt.Backends))
	}
	for _, name := range rt.Backends {
		s, err := ForBackend(name)
		if err != nil {
			t.Fatalf("ForBackend(%s): %v", name, err)
		}
		if s.Backend != name {
			t.Errorf("ForBackend(%s) spec names backend %q", name, s.Backend)
		}
		if probs := VsModel(&s); len(probs) != 0 {
			t.Errorf("spec %s vs model: %v", name, probs)
		}
		for _, ob := range TableIObligations() {
			if len(s.Committed(ob)) == 0 {
				t.Errorf("spec %s: obligation %s committed by no step", name, ob)
			}
		}
		wantClustered := name == "cdsm" || name == "cspm"
		if s.Clustered != wantClustered {
			t.Errorf("spec %s: Clustered=%v, want %v", name, s.Clustered, wantClustered)
		}
	}
	if _, err := ForBackend("no-such-backend"); err == nil {
		t.Error("ForBackend accepted an unknown backend")
	}
}

// deepCopy clones a spec so tests can break it without aliasing the
// authored commits.
func deepCopy(s Spec) Spec {
	c := s
	c.Commits = make([]Commit, len(s.Commits))
	for i, cm := range s.Commits {
		c.Commits[i] = Commit{Obligation: cm.Obligation, By: append([]Step(nil), cm.By...)}
	}
	c.Liveness = append([]Step(nil), s.Liveness...)
	return c
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ForBackend(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVsModelCatchesDefects: each defect class a spec can have — a
// dropped rule, a rule the model doesn't contain, a stepless commit, a
// duplicate — is reported by the data check.
func TestVsModelCatchesDefects(t *testing.T) {
	base := mustSpec(t, "swcc")
	cases := []struct {
		name   string
		break_ func(*Spec)
		want   string
	}{
		{"dropped rule", func(s *Spec) { s.Commits = s.Commits[1:] }, "incomplete"},
		{"phantom rule", func(s *Spec) {
			s.Commits = append(s.Commits, Commit{
				Obligation: Obligation{Earlier: core.KRead, New: core.KRead, Ord: core.OrdSync},
				By:         []Step{StepProgramOrder},
			})
		}, "unsound"},
		{"stepless commit", func(s *Spec) { s.Commits[0].By = nil }, "names no protocol step"},
		{"duplicate commit", func(s *Spec) { s.Commits = append(s.Commits, s.Commits[0]) }, "declared twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			broken := deepCopy(base)
			c.break_(&broken)
			probs := VsModel(&broken)
			if len(probs) == 0 {
				t.Fatal("defective spec passed VsModel")
			}
			if !strings.Contains(strings.Join(probs, "\n"), c.want) {
				t.Errorf("problems %v do not mention %q", probs, c.want)
			}
		})
	}
}

// TestFaultForBreakableSteps: the steps the fault harness can disable map
// to non-empty fault sets; purely structural steps map to none.
func TestFaultForBreakableSteps(t *testing.T) {
	for _, st := range []Step{StepExitWriteback, StepROInvalidate, StepFlushPost, StepLockTransfer} {
		if fs, ok := FaultFor(st); !ok || !fs.Enabled() {
			t.Errorf("FaultFor(%s) = %+v, %v; want a non-empty fault", st, fs, ok)
		}
	}
	for _, st := range []Step{StepProgramOrder, StepMutex, StepUncached, StepReplica, StepRouteCut} {
		if _, ok := FaultFor(st); ok {
			t.Errorf("FaultFor(%s) claimed a fault for an unbreakable step", st)
		}
	}
}

// TestCheckBackendConformsAll is the compositional conformance matrix:
// every backend, checked against its own spec at interface scale. With
// TestSpecsCoverModel (spec vs model) this composes into backend vs
// model for all of them.
func TestCheckBackendConformsAll(t *testing.T) {
	for _, name := range rt.Backends {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := mustSpec(t, name)
			r, err := CheckBackend(s, Platform{Tiles: 32}, CheckOptions{Runs: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Ok() {
				t.Errorf("%s", r)
			}
			if r.Work.SimTiles != InterfaceTiles {
				t.Errorf("simulated at %d tiles, want interface scale %d", r.Work.SimTiles, InterfaceTiles)
			}
			t.Log(r)
		})
	}
}

// TestCheckWorkPlatformIndependent pins the scaling claim: certifying a
// 1024-tile deployment costs exactly the same litmus work as certifying
// 32 tiles, for a flat backend and a clustered one.
func TestCheckWorkPlatformIndependent(t *testing.T) {
	for _, name := range []string{"swcc", "cdsm"} {
		s := mustSpec(t, name)
		r32, err := CheckBackend(s, Platform{Tiles: 32}, CheckOptions{Runs: 2})
		if err != nil {
			t.Fatal(err)
		}
		r1024, err := CheckBackend(s, Platform{Tiles: 1024}, CheckOptions{Runs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r32.Work, r1024.Work) {
			t.Errorf("%s: work at 32 tiles %+v != work at 1024 tiles %+v", name, r32.Work, r1024.Work)
		}
		if !r32.Ok() || !r1024.Ok() {
			t.Errorf("%s: conformance result depends on platform size: %v vs %v", name, r32.Ok(), r1024.Ok())
		}
	}
}

// TestCheckBackendRejectsEmptyPlatform: a platform without tiles is a
// caller mistake, reported as an error rather than certified.
func TestCheckBackendRejectsEmptyPlatform(t *testing.T) {
	s := mustSpec(t, "nocc")
	for _, tiles := range []int{-4, 0} {
		if r, err := CheckBackend(s, Platform{Tiles: tiles}, CheckOptions{Runs: 1}); err == nil {
			t.Errorf("Tiles %d: got result %+v, want an error", tiles, r)
		}
	}
}

// TestCheckBackendCatchesInjectedFault is the detection half of the
// acceptance criterion: a backend with one protocol step disabled — the
// fault its own spec names via FaultFor — must fail its spec check.
func TestCheckBackendCatchesInjectedFault(t *testing.T) {
	cases := []struct {
		backend string
		step    Step
	}{
		{"swcc", StepExitWriteback},
		{"dsm", StepLockTransfer},
	}
	for _, c := range cases {
		c := c
		t.Run(string(c.backend+"/"+string(c.step)), func(t *testing.T) {
			t.Parallel()
			s := mustSpec(t, c.backend)
			fs, ok := FaultFor(c.step)
			if !ok {
				t.Fatalf("no fault for step %s", c.step)
			}
			r, err := CheckBackend(s, Platform{Tiles: 32}, CheckOptions{Runs: 4, Faults: fs})
			if err != nil {
				t.Fatal(err)
			}
			if r.Ok() {
				t.Fatalf("%s with %s disabled passed its spec check", c.backend, c.step)
			}
			t.Log(r)
		})
	}
}

// TestCheckBackendRejectsBrokenSpec: a spec that fails the data check is
// reported as such and never simulated — the composition cannot be
// grounded on a spec that disagrees with the model.
func TestCheckBackendRejectsBrokenSpec(t *testing.T) {
	broken := deepCopy(mustSpec(t, "nocc"))
	broken.Commits = broken.Commits[1:]
	r, err := CheckBackend(broken, Platform{Tiles: 32}, CheckOptions{Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ok() {
		t.Fatal("broken spec certified")
	}
	for _, d := range r.Divergences {
		if d.Kind != "spec" {
			t.Errorf("unexpected divergence kind %q: %s", d.Kind, d)
		}
	}
	if r.Work.SimRuns != 0 {
		t.Errorf("broken spec still simulated %d runs", r.Work.SimRuns)
	}
}

// TestTraceMatrix is the satellite coverage matrix: every backend ×
// every interface program, executed once with the recorder attached, and
// every edge of the per-word lowered trace attributed to the backend's
// declared spec. This checks the specs edge-by-edge against real traces,
// independent of CheckBackend's outcome comparison.
func TestTraceMatrix(t *testing.T) {
	progs := InterfacePrograms()
	for _, name := range rt.Backends {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := mustSpec(t, name)
			base, err := interfaceConfig(s.Clustered)
			if err != nil {
				t.Fatal(err)
			}
			opt := conform.Options{Tiles: InterfaceTiles, Runs: 1, MaxCycles: interfaceMaxCycles, Base: base}
			for _, p := range progs {
				eff := conform.EffectiveProgram(p)
				_, exec, err := conform.ExecuteRecorded(eff, name, opt, 1)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if len(exec.Edges()) == 0 {
					t.Fatalf("%s: recorder produced no edges", p.Name)
				}
				if probs := CheckTrace(exec, s); len(probs) != 0 {
					t.Errorf("%s: %d unattributed edges, first: %s", p.Name, len(probs), probs[0])
				}
			}
		})
	}
}

// TestCheckTraceDetectsUncommittedEdge: remove the cross-process ≺S
// commit from a spec and the trace checker must flag the release→acquire
// edge of a real message-passing trace.
func TestCheckTraceDetectsUncommittedEdge(t *testing.T) {
	s := deepCopy(mustSpec(t, "nocc"))
	kept := s.Commits[:0]
	for _, c := range s.Commits {
		if !(c.Earlier == core.KRelease && c.New == core.KAcquire) {
			kept = append(kept, c)
		}
	}
	s.Commits = kept

	eff := conform.EffectiveProgram(litmus.Fig5Annotated())
	_, exec, err := conform.ExecuteRecorded(eff, "nocc", conform.Options{Tiles: InterfaceTiles, Runs: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	probs := CheckTrace(exec, s)
	if len(probs) == 0 {
		t.Fatal("missing ≺S commit not detected")
	}
	for _, p := range probs {
		if !strings.Contains(p, "A") { // every uncovered edge ends at an acquire
			t.Errorf("unexpected problem: %s", p)
		}
	}
	// Union semantics: adding a second spec that does commit ≺S covers
	// the trace again (the mixed-backend case).
	if probs := CheckTrace(exec, s, mustSpec(t, "swcc")); len(probs) != 0 {
		t.Errorf("union of specs still leaves %d edges uncovered: %s", len(probs), probs[0])
	}
}
