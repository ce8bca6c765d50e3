package core

import (
	"reflect"
	"slices"
	"testing"
)

// buildHistories returns a set of executions with varied shapes: races,
// locked sections, fences, multiple locations and processes.
func buildHistories() map[string]*Execution {
	hs := make(map[string]*Execution)

	e := NewExecution()
	x := e.AddLoc("X")
	f := e.AddLoc("flag")
	e.Write(0, x, 42)
	e.Write(0, f, 1)
	e.Read(1, f, 1)
	hs["fig1-racy"] = e

	e = NewExecution()
	x = e.AddLoc("X")
	f = e.AddLoc("f")
	e.Acquire(0, x)
	e.Write(0, x, 42)
	e.Fence(0)
	e.Release(0, x)
	e.Write(0, f, 1)
	e.Read(1, f, 1)
	e.Fence(1)
	e.Acquire(1, x)
	hs["fig5-annotated"] = e

	e = NewExecution()
	x = e.AddLoc("X")
	for k := 0; k < 6; k++ {
		p := ProcID(k % 3)
		e.Acquire(p, x)
		e.Write(p, x, Value(k))
		e.Release(p, x)
	}
	hs["lock-chain"] = e

	e = NewExecution()
	x = e.AddLoc("X")
	y := e.AddLoc("Y")
	e.Write(0, x, 1)
	e.FenceLoc(0, x)
	e.Write(0, y, 1)
	e.Write(1, y, 2)
	e.Read(1, x, 0)
	hs["scoped-fence"] = e

	// Process 1's acquire of X follows both releases, so a read of X by
	// process 1 sees three writes besides init: 1 and 2 in program order,
	// and 3, unordered with either. W = {2, 3}: write 1 is dominated by
	// write 2 only, not by the newest write 3.
	e = NewExecution()
	x = e.AddLoc("X")
	e.Acquire(0, x)
	e.Write(0, x, 1)
	e.Write(0, x, 2)
	e.Release(0, x)
	e.Write(2, x, 3)
	e.Release(2, x)
	e.Acquire(1, x)
	hs["concurrent-maximal"] = e

	return hs
}

// TestReadableAtMatchesProbe: the read-only query path must agree with the
// reference probe computation — issue the read, query it, undo it — for
// every process and location of every history shape.
func TestReadableAtMatchesProbe(t *testing.T) {
	for name, e := range buildHistories() {
		for p := ProcID(0); p < 3; p++ {
			for v := Loc(0); int(v) < len(e.initOf); v++ {
				op := e.Read(p, v, 0)
				want := e.ReadableFrom(op.ID)
				wantW := slices.Clone(e.lastWrites(op.ID))
				e.Undo()
				got := e.ReadableAt(p, v)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: ReadableAt(p%d, v%d) = %v, probe = %v",
						name, p, v, got, want)
				}
				gotW := slices.Clone(e.lastWritesAt(p, v))
				if !reflect.DeepEqual(gotW, wantW) {
					t.Errorf("%s: lastWritesAt(p%d, v%d) = %v, probe = %v",
						name, p, v, gotW, wantW)
				}
			}
		}
	}
}

// TestReadableAtDoesNotMutate: the query must leave the execution
// untouched — same ops, same edges, before and after.
func TestReadableAtDoesNotMutate(t *testing.T) {
	for name, e := range buildHistories() {
		ops := len(e.Ops())
		edges := len(allEdges(e))
		for p := ProcID(0); p < 3; p++ {
			for v := Loc(0); int(v) < len(e.initOf); v++ {
				e.ReadableAt(p, v)
			}
		}
		if len(e.Ops()) != ops || len(allEdges(e)) != edges {
			t.Errorf("%s: execution mutated by ReadableAt (%d→%d ops, %d→%d edges)",
				name, ops, len(e.Ops()), edges, len(allEdges(e)))
		}
	}
}
