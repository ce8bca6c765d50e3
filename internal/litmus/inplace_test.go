package litmus

import (
	"reflect"
	"testing"
)

// TestExplorerRerunIdentical: running the same Explorer twice gives an
// identical Result in every engine mode.
func TestExplorerRerunIdentical(t *testing.T) {
	modes := []struct {
		name              string
		workers           int
		memoize, symmetry bool
	}{
		{"tree", 1, false, false},
		{"memoized", 1, true, false},
		{"parallel", 2, true, false},
		{"symmetry", 2, true, true},
	}
	for _, m := range modes {
		x := NewExplorer(IRIWSym3())
		x.Workers, x.Memoize, x.Symmetry = m.workers, m.memoize, m.symmetry
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

// TestExploreRestoresRoot: the engines explore on the root state in place,
// so after a sequential walk or a frontier expansion, memoized or not, the
// root must be the freshly built one again — same ops, edges, pcs, locks,
// reads, registers.
func TestExploreRestoresRoot(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, memoize := range []bool{false, true} {
			for _, p := range []Program{WRCDRF(), MutexCounter(), IRIW3()} {
				checkRootRestored(t, p, workers, memoize)
			}
		}
	}
}

func checkRootRestored(t *testing.T, p Program, workers int, memoize bool) {
	t.Helper()
	x := NewExplorer(p)
	root, err := x.prepare()
	if err != nil {
		t.Fatal(err)
	}
	g := &engine{x: x, memoize: memoize, maxStates: int64(x.MaxStates)}
	if workers == 1 {
		_, err = g.explore(root)
	} else {
		_, err = g.runParallel(root, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	fresh := x.newRoot()
	if !reflect.DeepEqual(root.exec.Ops(), fresh.exec.Ops()) ||
		!reflect.DeepEqual(root.exec.Edges(), fresh.exec.Edges()) ||
		!reflect.DeepEqual(root.pcs, fresh.pcs) ||
		!reflect.DeepEqual(root.lockHolder, fresh.lockHolder) ||
		!reflect.DeepEqual(root.lastRead, fresh.lastRead) ||
		!reflect.DeepEqual(root.regs, fresh.regs) {
		t.Errorf("%s, %d workers, memoize %v: root not restored after exploration", p.Name, workers, memoize)
	}
}

// TestExploreAllocsPerState guards the in-place engine: sequential
// memoized exploration of the stress program stays under 60 heap
// allocations per explored state. Copying the execution per successor
// costs about 170.
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
	if perState >= 60 {
		t.Errorf("%.1f allocations per explored state, want < 60", perState)
	}
}
