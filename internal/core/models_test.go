package core

import (
	"testing"
	"testing/quick"
)

// These tests make Section IV-E ("Comparison to Existing Models")
// executable. The paper characterizes PMC's globally observable orderings
// by two properties from Steinke & Nutt's taxonomy:
//
//	GDO (Global Data Order):    all writes to one location are totally
//	                            ordered, across processes — what
//	                            acquire/release pairs provide;
//	GPO (Global Process Order): all writes of one process are totally
//	                            ordered, across locations — what fences
//	                            provide.
//
// The paper's claims, each of which has a corresponding test below:
//   - plain reads/writes behave as Slow Consistency (per-process,
//     per-location order only);
//   - wrapping writes in acquire/release yields GDO — Cache Consistency;
//   - adding a fence between every operation yields GDO+GPO — Processor
//     Consistency, which can simulate SC for data-race-free programs;
//   - both GDO and GPO are required for a usable model.

// writesTotallyOrderedG reports whether all writes to v (including the
// initial one) are in total ≺G order — Global Data Order for that
// location, and the paper's requirement for deterministic, data-race-free
// programs ("all writes to a single location must be in total order",
// Section IV-D).
func (e *Execution) writesTotallyOrderedG(v Loc) bool {
	var ws []int
	for _, op := range e.ops {
		if (op.Kind == KWrite || op.IsInit) && op.Loc == v {
			ws = append(ws, op.ID)
		}
	}
	return e.totallyOrderedG(ws)
}

// totallyOrderedG reports whether every pair of the ops ws is ordered
// under ≺G, one way or the other.
func (e *Execution) totallyOrderedG(ws []int) bool {
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			if !e.ReachableG(ws[i], ws[j]) && !e.ReachableG(ws[j], ws[i]) {
				return false
			}
		}
	}
	return true
}

// hasGDOAll reports GDO for every location.
func (e *Execution) hasGDOAll() bool {
	for v := range e.initOf {
		if !e.writesTotallyOrderedG(Loc(v)) {
			return false
		}
	}
	return true
}

// hasGPO reports whether all writes issued by process p are totally
// ordered under ≺G across locations — Global Process Order for p.
func (e *Execution) hasGPO(p ProcID) bool {
	var ws []int
	for _, op := range e.ops {
		if op.Kind == KWrite && !op.IsInit && op.Proc == p {
			ws = append(ws, op.ID)
		}
	}
	return e.totallyOrderedG(ws)
}

// hasGPOAll reports GPO for every process that issued a write.
func (e *Execution) hasGPOAll() bool {
	seen := map[ProcID]bool{}
	for _, op := range e.ops {
		if op.Kind == KWrite && !op.IsInit && !seen[op.Proc] {
			seen[op.Proc] = true
			if !e.hasGPO(op.Proc) {
				return false
			}
		}
	}
	return true
}

// classifyStrength names the strongest classical model the execution's
// global orderings satisfy, per Section IV-E's characterization:
//
//	"slow" — neither GDO nor GPO beyond per-process-per-location order;
//	"cc"   — GDO everywhere (Cache Consistency);
//	"gpo"  — GPO everywhere but not GDO (PRAM-like);
//	"pc"   — GDO and GPO everywhere (Processor Consistency).
func (e *Execution) classifyStrength() string {
	gdo, gpo := e.hasGDOAll(), e.hasGPOAll()
	switch {
	case gdo && gpo:
		return "pc"
	case gdo:
		return "cc"
	case gpo:
		return "gpo"
	default:
		return "slow"
	}
}

// slowConsistencyHolds verifies the base guarantee PMC shares with Slow
// Consistency: writes by one process to one location are observed by that
// process's later reads in issue order — i.e. for every read, the writes
// of the reading process to that location that precede it in issue order
// are all p≺-before it.
func (e *Execution) slowConsistencyHolds() bool {
	for _, rd := range e.ops {
		if rd.Kind != KRead || rd.IsInit {
			continue
		}
		for _, w := range e.ops {
			if w.Kind != KWrite || w.IsInit || w.Proc != rd.Proc || w.Loc != rd.Loc || w.ID >= rd.ID {
				continue
			}
			if !e.ReachableP(rd.Proc, w.ID, rd.ID) {
				return false
			}
		}
	}
	return true
}

// bareWrites issues unsynchronized writes from two processes to two
// locations.
func bareWrites() *Execution {
	e := NewExecution()
	x := e.AddLoc("X")
	y := e.AddLoc("Y")
	e.Write(1, x, 1)
	e.Write(1, y, 2)
	e.Write(2, x, 3)
	e.Write(2, y, 4)
	return e
}

// lockedWrites wraps every write in acquire/release of its location.
func lockedWrites(withFences bool) *Execution {
	e := NewExecution()
	x := e.AddLoc("X")
	y := e.AddLoc("Y")
	emit := func(p ProcID, v Loc, val Value) {
		e.Acquire(p, v)
		e.Write(p, v, val)
		e.Release(p, v)
		if withFences {
			e.Fence(p)
		}
	}
	emit(1, x, 1)
	emit(1, y, 2)
	emit(2, x, 3)
	emit(2, y, 4)
	return e
}

// TestSectionIVEHierarchy walks the paper's model hierarchy: bare accesses
// are Slow Consistency, locks add GDO (Cache Consistency), locks plus
// fences add GPO (Processor Consistency).
func TestSectionIVEHierarchy(t *testing.T) {
	if got := bareWrites().classifyStrength(); got != "slow" {
		t.Errorf("bare writes classify as %q, want slow", got)
	}
	if got := lockedWrites(false).classifyStrength(); got != "cc" {
		t.Errorf("locked writes classify as %q, want cc (GDO without GPO)", got)
	}
	if got := lockedWrites(true).classifyStrength(); got != "pc" {
		t.Errorf("locked+fenced writes classify as %q, want pc (GDO+GPO)", got)
	}
}

func TestGDORequiresLocks(t *testing.T) {
	e := bareWrites()
	if e.hasGDOAll() {
		t.Fatal("unsynchronized cross-process writes must not be totally ordered")
	}
	if !lockedWrites(false).hasGDOAll() {
		t.Fatal("lock-disciplined writes must have GDO")
	}
}

func TestGPORequiresFences(t *testing.T) {
	if lockedWrites(false).hasGPOAll() {
		t.Fatal("without fences, writes of one process to different locations are unordered")
	}
	if !lockedWrites(true).hasGPOAll() {
		t.Fatal("with fences between operations, per-process writes must be totally ordered")
	}
}

func TestSlowConsistencyAlwaysHolds(t *testing.T) {
	// The base model guarantees Slow Consistency even with no
	// synchronization at all (Section IV-C: "the reads, writes, local
	// and program order ... are equivalent to Slow Consistency").
	e := NewExecution()
	x := e.AddLoc("X")
	e.Write(1, x, 1)
	e.Read(1, x, 1)
	e.Write(1, x, 2)
	e.Read(1, x, 2)
	e.Write(2, x, 9)
	e.Read(2, x, 9)
	if !e.slowConsistencyHolds() {
		t.Fatal("slow consistency must hold by construction")
	}
}

// Property: any random program satisfies Slow Consistency, and wrapping
// the same write sequence in per-location locks always yields GDO.
func TestModelHierarchyProperty(t *testing.T) {
	prop := func(script []byte) bool {
		// Arbitrary program: slow consistency by construction.
		e := NewExecution()
		randProgram(e, script, 3, 2)
		if !e.slowConsistencyHolds() {
			return false
		}
		// Lock-disciplined version of the write stream: GDO.
		d := NewExecution()
		locs := []Loc{d.AddLoc("A"), d.AddLoc("B")}
		for i := 0; i+1 < len(script); i += 2 {
			p := ProcID(script[i] % 3)
			v := locs[int(script[i+1])%2]
			d.Acquire(p, v)
			d.Write(p, v, Value(i))
			d.Release(p, v)
		}
		return d.hasGDOAll()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyGPOOnly covers the PRAM-like corner: a single writer process
// with fences has GPO trivially, but cross-process writes without locks
// break GDO.
func TestClassifyGPOOnly(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	e.Write(1, x, 1)
	e.Fence(1)
	e.Write(1, x, 2) // fence orders p1's writes: GPO for p1
	e.Write(2, x, 9) // unordered against p1: GDO broken
	e.Fence(2)
	if e.hasGDOAll() {
		t.Fatal("cross-process unlocked writes should break GDO")
	}
	if !e.hasGPOAll() {
		t.Fatal("fenced per-process writes should have GPO")
	}
	if got := e.classifyStrength(); got != "gpo" {
		t.Fatalf("classification = %q, want gpo", got)
	}
}
