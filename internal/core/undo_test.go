package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// snapshot is everything observable about an execution, plus its pattern
// indexes, captured so Undo can be checked against the state before Exec.
type snapshot struct {
	ops      []Op
	edges    []Edge
	lastW    map[string][]int
	readable map[string][]int
	indexes  string
}

// allEdges returns every dependency edge, by source op in issue order.
func allEdges(e *Execution) []Edge {
	var all []Edge
	for _, es := range e.out {
		all = append(all, es...)
	}
	return all
}

func snap(e *Execution, procs int) snapshot {
	s := snapshot{lastW: map[string][]int{}, readable: map[string][]int{}}
	for _, op := range e.Ops() {
		s.ops = append(s.ops, *op)
	}
	s.edges = allEdges(e)
	for p := ProcID(0); int(p) < procs; p++ {
		for v := Loc(0); int(v) < len(e.initOf); v++ {
			k := fmt.Sprintf("p%d/v%d", p, v)
			s.lastW[k] = slices.Clone(e.lastWritesAt(p, v))
			s.readable[k] = e.ReadableAt(p, v)
		}
	}
	s.indexes = dumpIndexes(e)
	return s
}

// dumpIndexes renders every non-empty pattern-index list, sorted, keyed
// by process and location rather than by proc slot: a slot interned for
// an op that was later undone stays behind, empty. A list emptied by Undo
// and one never created are the same to Exec, so empty lists are skipped.
func dumpIndexes(e *Execution) string {
	var fields []string
	add := func(l []int, scope string, args ...any) {
		if len(l) > 0 {
			fields = append(fields, fmt.Sprintf(scope, args...)+fmt.Sprint(l))
		}
	}
	for v, l := range e.releasesL {
		add(l, "releasesL[v%d]=", v)
	}
	add(e.initOf, "initOf=")
	for s, pi := range e.byProc {
		p := e.procs[s]
		for k, l := range pi.patterns {
			add(l, "p%d/%v=", p, Kind(k))
		}
		for v, ps := range pi.locs {
			for k, l := range ps {
				add(l, "p%d/v%d/%v=", p, v, Kind(k))
			}
		}
	}
	sort.Strings(fields)
	return strings.Join(fields, ";")
}

func (a snapshot) diff(b snapshot) string {
	switch {
	case !reflect.DeepEqual(a.ops, b.ops):
		return fmt.Sprintf("ops %v, want %v", a.ops, b.ops)
	case !reflect.DeepEqual(a.edges, b.edges):
		return fmt.Sprintf("edges %v, want %v", a.edges, b.edges)
	case !reflect.DeepEqual(a.lastW, b.lastW):
		return fmt.Sprintf("lastWritesAt %v, want %v", a.lastW, b.lastW)
	case !reflect.DeepEqual(a.readable, b.readable):
		return fmt.Sprintf("ReadableAt %v, want %v", a.readable, b.readable)
	case a.indexes != b.indexes:
		return fmt.Sprintf("indexes %s, want %s", a.indexes, b.indexes)
	}
	return ""
}

// randOp is one random issue over procs × locs, covering all five kinds
// plus location-scoped fences.
type randOp struct {
	k   Kind
	p   ProcID
	v   Loc
	val Value
}

func newRandOp(rng *rand.Rand, procs, locs int) randOp {
	o := randOp{p: ProcID(rng.Intn(procs)), v: Loc(rng.Intn(locs)), val: Value(rng.Intn(4))}
	switch rng.Intn(6) {
	case 0:
		o.k = KRead
	case 1:
		o.k = KWrite
	case 2:
		o.k = KAcquire
	case 3:
		o.k = KRelease
	case 4:
		o.k = KFence
		o.v = NoLoc
	case 5:
		o.k = KFence // location-scoped
	}
	return o
}

func (o randOp) exec(e *Execution) *Op { return e.Exec(o.k, o.p, o.v, o.val, "") }

// TestUndoRestoresExecution: after every Exec + Undo the execution is the
// pre-Exec one — same ops, same edges in the same order, same last-write
// and readable sets for every (p, v), same pattern indexes — and issuing
// the same op again reproduces its edges. The re-issue reuses the *Op the
// Undo retired with every field reset, and leaves the execution equal to
// a fresh one that issued the same ops without undoing. Undoing the whole
// history back to the init ops retraces every intermediate state, and one
// more Undo panics.
func TestUndoRestoresExecution(t *testing.T) {
	const procs, locs = 3, 3
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		e, fresh := NewExecution(), NewExecution()
		for i := 0; i < locs; i++ {
			e.AddLoc(fmt.Sprintf("L%d", i))
			fresh.AddLoc(fmt.Sprintf("L%d", i))
		}
		var history []snapshot
		for step := 0; step < 24; step++ {
			before := snap(e, procs)
			o := newRandOp(rng, procs, locs)
			op := o.exec(e)
			in := append([]Edge(nil), e.In(op.ID)...)
			edges := allEdges(e)
			e.Undo()
			if d := snap(e, procs).diff(before); d != "" {
				t.Fatalf("trial %d step %d: undo of %s: %s", trial, step, op, d)
			}
			// Scribble over the retired op: the re-issue must reset
			// every field, not only the ones Exec happens to vary.
			*op = Op{ID: -1, Kind: KFence, Proc: 7, Loc: 7, Val: 99, IsInit: true, Label: "stale"}
			again := o.exec(e)
			if again != op {
				t.Fatalf("trial %d step %d: re-issue allocated a new *Op instead of reusing the retired one", trial, step)
			}
			if !reflect.DeepEqual(e.In(again.ID), in) || !reflect.DeepEqual(allEdges(e), edges) {
				t.Fatalf("trial %d step %d: re-issued %s has in-edges %v (want %v)",
					trial, step, again, e.In(again.ID), in)
			}
			want := o.exec(fresh)
			if *again != *want {
				t.Fatalf("trial %d step %d: reused op %+v, want %+v", trial, step, *again, *want)
			}
			if d := snap(e, procs).diff(snap(fresh, procs)); d != "" {
				t.Fatalf("trial %d step %d: after reuse: %s", trial, step, d)
			}
			history = append(history, before)
		}
		for i := len(history) - 1; i >= 0; i-- {
			e.Undo()
			if d := snap(e, procs).diff(history[i]); d != "" {
				t.Fatalf("trial %d: unwinding to step %d: %s", trial, i, d)
			}
		}
		mustPanic(t, "Undo with only init ops", e.Undo)
	}
	mustPanic(t, "Undo of an empty execution", NewExecution().Undo)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
