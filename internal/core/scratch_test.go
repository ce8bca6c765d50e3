package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// naiveReach is the reference for reachable: a depth-first search over
// edges visible to viewer with a fresh visited set, no pruning.
func naiveReach(e *Execution, from, to int, viewer ProcID) bool {
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, ed := range e.Out(n) {
			if e.visible(ed, viewer) && !seen[ed.To] {
				seen[ed.To] = true
				stack = append(stack, ed.To)
			}
		}
	}
	return false
}

// naiveLastWrites is Definition 11 read literally: the writes to o's
// location (init included) with a path to o in the view of o's process,
// minus those with a path to another such write.
func naiveLastWrites(e *Execution, o int) []int {
	op := e.Op(o)
	var before []int
	for _, w := range e.Ops() {
		if w.ID != o && (w.Kind == KWrite || w.IsInit) && w.Loc == op.Loc && naiveReach(e, w.ID, o, op.Proc) {
			before = append(before, w.ID)
		}
	}
	var maximal []int
	for _, a := range before {
		dominated := false
		for _, b := range before {
			if a != b && naiveReach(e, a, b, op.Proc) {
				dominated = true
			}
		}
		if !dominated {
			maximal = append(maximal, a)
		}
	}
	return maximal
}

// naiveReadable is Definition 12 read literally: the writes b to o's
// location, other than o, with a p⪯ b for some a ∈ W_o.
func naiveReadable(e *Execution, o int) []int {
	op := e.Op(o)
	w := naiveLastWrites(e, o)
	var out []int
	for _, b := range e.Ops() {
		if b.ID == o || !(b.Kind == KWrite || b.IsInit) || b.Loc != op.Loc {
			continue
		}
		for _, a := range w {
			if naiveReach(e, a, b.ID, op.Proc) {
				out = append(out, b.ID)
				break
			}
		}
	}
	return out
}

// queryDump renders every answer the graph queries give on e: ReachableP
// for every viewer and pair of ops, and lastWritesAt and ReadableAt for
// every (proc, location).
func queryDump(e *Execution, procs int) string {
	var s string
	for p := ProcID(0); int(p) < procs; p++ {
		for i := range e.Ops() {
			for j := range e.Ops() {
				if e.ReachableP(p, i, j) {
					s += fmt.Sprintf("p%d:%d≺%d ", p, i, j)
				}
			}
		}
		for v := Loc(0); int(v) < len(e.initOf); v++ {
			s += fmt.Sprintf("p%d/v%d W=%v R=%v ", p, v, slices.Clone(e.lastWritesAt(p, v)), e.ReadableAt(p, v))
		}
	}
	return s
}

// TestQueriesMatchNaiveReference: the scratch-based searches — pruned
// reachability, the shared backward last-write search, in-place maximal
// filtering and the one-pass readable search — agree with literal
// readings of Definitions 9–12, for every op and every probe read, on the
// hand-built histories and on random executions.
func TestQueriesMatchNaiveReference(t *testing.T) {
	for name, e := range buildHistories() {
		checkAgainstNaive(t, name, e, 3)
	}
	const procs, locs = 3, 3
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		e := NewExecution()
		for i := 0; i < locs; i++ {
			e.AddLoc(fmt.Sprintf("L%d", i))
		}
		for step := 0; step < 20; step++ {
			newRandOp(rng, procs, locs).exec(e)
		}
		checkAgainstNaive(t, fmt.Sprintf("trial %d", trial), e, procs)
	}
}

func checkAgainstNaive(t *testing.T, name string, e *Execution, procs int) {
	t.Helper()
	n := len(e.Ops())
	for p := ProcID(0); int(p) < procs; p++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := e.ReachableP(p, i, j), i == j || naiveReach(e, i, j, p); got != want {
					t.Fatalf("%s: ReachableP(p%d, %d, %d) = %v, want %v", name, p, i, j, got, want)
				}
			}
		}
		for v := Loc(0); int(v) < len(e.initOf); v++ {
			rd := e.Read(p, v, 0)
			wantW, wantR := naiveLastWrites(e, rd.ID), naiveReadable(e, rd.ID)
			e.Undo()
			if got := slices.Clone(e.lastWritesAt(p, v)); !reflect.DeepEqual(got, wantW) {
				t.Fatalf("%s: lastWritesAt(p%d, v%d) = %v, want %v", name, p, v, got, wantW)
			}
			if got := e.ReadableAt(p, v); !reflect.DeepEqual(got, wantR) {
				t.Fatalf("%s: ReadableAt(p%d, v%d) = %v, want %v", name, p, v, got, wantR)
			}
		}
	}
	for _, op := range e.Ops() {
		if op.Kind != KRead && op.Kind != KWrite || op.IsInit {
			continue // W_o is defined for accesses
		}
		if got, want := slices.Clone(e.lastWrites(op.ID)), naiveLastWrites(e, op.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: lastWrites(%s) = %v, want %v", name, op, got, want)
		}
		if got, want := e.ReadableFrom(op.ID), naiveReadable(e, op.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ReadableFrom(%s) = %v, want %v", name, op, got, want)
		}
	}
}

// TestSearchStampWraparound: a search stamp that wraps past MaxUint32
// must not alias marks left by earlier searches. Each history's marks are
// set as a search long ago and the growth of the mark array would leave
// them (1: visited by search 1; 0: never visited), its stamp is put just
// below the wrap, and it is queried through the wrap: every answer must
// equal a fresh copy's. The wrap falls on a different query each round.
func TestSearchStampWraparound(t *testing.T) {
	fresh := buildHistories()
	for name, e := range buildHistories() {
		want := queryDump(fresh[name], 3)
		queryDump(e, 3) // grows mark to cover every op
		for k := uint32(0); k < 8; k++ {
			for i := range e.mark {
				e.mark[i] = uint32(i % 2)
			}
			e.stamp = math.MaxUint32 - k
			if got := queryDump(e, 3); got != want {
				t.Fatalf("%s: wrap after %d searches (stamp now %d):\n got %s\nwant %s",
					name, k+1, e.stamp, got, want)
			}
			if e.stamp > 1<<20 {
				t.Fatalf("%s: stamp %d, the queries never wrapped it", name, e.stamp)
			}
		}
	}
}

// TestSparseProcIDs: the pattern indexes intern proc slots, so a process
// with a large ID (the runtime recorder's setup process is 1<<20) costs
// what a small one does: building an execution with it allocates a few
// KiB, where a table indexed by raw ProcID would take megabytes, its
// queries answer as a small ID's do, and an Exec/Undo cycle allocates
// nothing once the lists have grown.
func TestSparseProcIDs(t *testing.T) {
	const big ProcID = 1 << 20
	build := func(procs []ProcID) (*Execution, Loc) {
		e := NewExecution()
		x := e.AddLoc("X")
		y := e.AddLoc("Y")
		for _, p := range procs {
			e.Acquire(p, x)
			e.Write(p, x, 1)
			e.FenceLoc(p, y)
			e.Release(p, x)
			e.Read(p, y, 0)
			e.Fence(p)
		}
		return e, x
	}
	sparseIDs, denseIDs := []ProcID{big, 0, big + 7}, []ProcID{1, 0, 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sparse, x := build(sparseIDs)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 32<<10 {
		t.Errorf("an execution with ProcID %d allocated %d bytes, want at most 32 KiB", big, b)
	}
	dense, _ := build(denseIDs)
	for i, p := range sparseIDs {
		q := denseIDs[i]
		for v := Loc(0); int(v) < len(dense.initOf); v++ {
			if got, want := slices.Clone(sparse.lastWritesAt(p, v)), slices.Clone(dense.lastWritesAt(q, v)); !reflect.DeepEqual(got, want) {
				t.Errorf("lastWritesAt(%d, v%d) = %v, as ProcID %d %v", p, v, got, q, want)
			}
			if got, want := sparse.ReadableAt(p, v), dense.ReadableAt(q, v); !reflect.DeepEqual(got, want) {
				t.Errorf("ReadableAt(%d, v%d) = %v, as ProcID %d %v", p, v, got, q, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sparse.Write(big, x, 1)
		sparse.Undo()
	})
	if allocs != 0 {
		t.Errorf("Exec/Undo by ProcID %d: %.1f allocations, want 0", big, allocs)
	}
}
