package litmus

import (
	"reflect"
	"testing"

	"pmc/internal/core"
)

// TestExplorerRerunIdentical: running the same Explorer twice gives an
// identical Result in every engine mode.
func TestExplorerRerunIdentical(t *testing.T) {
	modes := []struct {
		name     string
		workers  int
		symmetry bool
	}{
		{"memoized", 1, false},
		{"parallel", 2, false},
		{"symmetry", 2, true},
	}
	for _, m := range modes {
		x := NewExplorer(IRIWSym3())
		x.Workers, x.Symmetry = m.workers, m.symmetry
		a, err := x.Run()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		b, err := x.Run()
		if err != nil {
			t.Fatalf("%s rerun: %v", m.name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: rerun %+v differs from first run %+v", m.name, b, a)
		}
	}
}

// TestExploreRestoresRoot: the engine explores on the root state in
// place, so after a walk alone or beside a helper walker, with symmetry or
// without, the root must be the freshly built one again — same ops,
// edges, pcs, locks, reads, registers, op labels, and the same
// fingerprint in every frame.
func TestExploreRestoresRoot(t *testing.T) {
	modes := []struct {
		workers  int
		symmetry bool
	}{{1, false}, {1, true}, {2, false}, {2, true}}
	for _, m := range modes {
		for _, p := range []Program{WRCDRF(), MutexCounter(), IRIW3(), IRIW()} {
			checkRootRestored(t, p, m.workers, m.symmetry)
		}
	}
}

// allEdges returns every dependency edge of e, by source op in issue
// order.
func allEdges(e *core.Execution) []core.Edge {
	var all []core.Edge
	for id := range e.Ops() {
		all = append(all, e.Out(id)...)
	}
	return all
}

func checkRootRestored(t *testing.T, p Program, workers int, symmetry bool) {
	t.Helper()
	x := NewExplorer(p)
	x.Symmetry = symmetry
	root, err := x.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if _, err = newEngine(x).run(root, workers); err != nil {
		t.Fatal(err)
	}
	fresh := x.newRoot()
	if !reflect.DeepEqual(root.exec.Ops(), fresh.exec.Ops()) ||
		!reflect.DeepEqual(allEdges(root.exec), allEdges(fresh.exec)) ||
		!reflect.DeepEqual(root.pcs, fresh.pcs) ||
		!reflect.DeepEqual(root.lockHolder, fresh.lockHolder) ||
		!reflect.DeepEqual(root.lastRead, fresh.lastRead) ||
		!reflect.DeepEqual(root.regs, fresh.regs) ||
		!reflect.DeepEqual(root.labels, fresh.labels) {
		t.Errorf("%s, %d workers, symmetry %v: root not restored after exploration",
			p.Name, workers, symmetry)
	}
	for f := range x.frames {
		if got, want := x.fingerprintIn(root, f), x.fingerprintIn(fresh, f); got != want {
			t.Errorf("%s, %d workers, symmetry %v: frame %d fingerprint %x after exploration, fresh root %x",
				p.Name, workers, symmetry, f, got, want)
		}
	}
}

// TestExploreAllocsPerState guards the allocation-free exploration step:
// sequential memoized exploration of the stress program stays under 12
// heap allocations per explored state. It takes about 3: a state's memo
// entry, its summed outcome counts and its readable sets. A memo table of boxed keys
// and per-entry channels, an outcome-count map per state and fresh search
// buffers per query cost 22.3; copying the execution per successor costs
// about 170.
func TestExploreAllocsPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	var states int
	allocs := testing.AllocsPerRun(3, func() {
		x := NewExplorer(StressIndependent())
		x.Workers = 1
		r, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		states = r.States
	})
	perState := allocs / float64(states)
	t.Logf("%.0f allocations over %d states: %.1f per state", allocs, states, perState)
	if perState >= 12 {
		t.Errorf("%.1f allocations per explored state, want < 12", perState)
	}
}
