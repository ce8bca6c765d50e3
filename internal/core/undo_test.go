package core

import (
	"fmt"
	"math/rand"
	"reflect"
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

func snap(e *Execution, procs int) snapshot {
	s := snapshot{lastW: map[string][]int{}, readable: map[string][]int{}}
	for _, op := range e.Ops() {
		s.ops = append(s.ops, *op)
	}
	s.edges = e.Edges()
	for p := ProcID(0); int(p) < procs; p++ {
		for v := Loc(0); int(v) < e.NumLocs(); v++ {
			k := fmt.Sprintf("p%d/v%d", p, v)
			s.lastW[k] = e.LastWritesAt(p, v)
			s.readable[k] = e.ReadableAt(p, v)
		}
	}
	s.indexes = dumpIndexes(e)
	return s
}

// dumpIndexes renders every non-empty pattern-index list, sorted. A list
// emptied by Undo and one never created are the same to Exec, so empty
// lists are skipped.
func dumpIndexes(e *Execution) string {
	var fields []string
	for name, m := range map[string]any{
		"readsPL": e.readsPL, "writesPL": e.writesPL, "acquiresPL": e.acquiresPL,
		"releasesPL": e.releasesPL, "releasesL": e.releasesL, "readsP": e.readsP,
		"writesP": e.writesP, "acquiresP": e.acquiresP, "releasesP": e.releasesP,
		"fencesP": e.fencesP, "fencesPL": e.fencesPL,
	} {
		rv := reflect.ValueOf(m)
		for _, k := range rv.MapKeys() {
			if l := rv.MapIndex(k); l.Len() > 0 {
				fields = append(fields, fmt.Sprintf("%s[%v]=%v", name, k.Interface(), l.Interface()))
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
		return fmt.Sprintf("LastWritesAt %v, want %v", a.lastW, b.lastW)
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
// the same op again reproduces its edges. Undoing the whole history back
// to the init ops retraces every intermediate state, and one more Undo
// panics.
func TestUndoRestoresExecution(t *testing.T) {
	const procs, locs = 3, 3
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		e := NewExecution()
		for i := 0; i < locs; i++ {
			e.AddLoc(fmt.Sprintf("L%d", i))
		}
		var history []snapshot
		for step := 0; step < 24; step++ {
			before := snap(e, procs)
			o := newRandOp(rng, procs, locs)
			op := o.exec(e)
			in := append([]Edge(nil), e.In(op.ID)...)
			edges := e.Edges()
			e.Undo()
			if d := snap(e, procs).diff(before); d != "" {
				t.Fatalf("trial %d step %d: undo of %s: %s", trial, step, op, d)
			}
			again := o.exec(e)
			if !reflect.DeepEqual(e.In(again.ID), in) || !reflect.DeepEqual(e.Edges(), edges) {
				t.Fatalf("trial %d step %d: re-issued %s has in-edges %v (want %v)",
					trial, step, again, e.In(again.ID), in)
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
