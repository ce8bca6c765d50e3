package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableIRenders(t *testing.T) {
	out := RenderTableI()
	t.Logf("\n%s", out) // printed for side-by-side comparison with the paper
	for _, want := range []string{"read", "write", "acquire", "release", "fence", "≺S†"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	// 17 populated cells.
	if got := strings.Count(out, "≺"); got < 17 {
		t.Errorf("table shows %d orderings, want >= 17", got)
	}
}

func TestTableIRuleCount(t *testing.T) {
	if len(TableI) != 17 {
		t.Fatalf("TableI has %d rules, want 17", len(TableI))
	}
	// Exactly one cross-process rule: release → acquire (the footnote).
	var cross []Rule
	for _, r := range TableI {
		if r.AnyProc {
			cross = append(cross, r)
		}
	}
	if len(cross) != 1 || cross[0].Earlier != KRelease || cross[0].New != KAcquire || cross[0].Ord != OrdSync {
		t.Fatalf("cross-process rules = %+v, want exactly release→acquire ≺S", cross)
	}
}

// TestFig2ProgramOrder reproduces Fig. 2: two writes by one process to one
// location are in ≺P order, transitively reduced to a chain from init.
func TestFig2ProgramOrder(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	w1 := e.Write(0, x, 1)
	w2 := e.Write(0, x, 2)

	if !e.ReachableG(w1.ID, w2.ID) {
		t.Fatal("X=1 must be globally before X=2")
	}
	red := e.ReducedEdges()
	// Chain: init -> w1 -> w2; the direct init -> w2 edge is redundant.
	want := map[[2]int]Ord{
		{0, w1.ID}:     OrdProgram,
		{w1.ID, w2.ID}: OrdProgram,
	}
	if len(red) != len(want) {
		t.Fatalf("reduced edges = %v, want %v", red, want)
	}
	for _, ed := range red {
		if want[[2]int{ed.From, ed.To}] != ed.Ord {
			t.Fatalf("unexpected edge %+v", ed)
		}
	}
}

// TestFig3LocalOrder reproduces Fig. 3: a read between two writes is
// locally ordered, and at the moment it executes it can only return 1.
func TestFig3LocalOrder(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	w1 := e.Write(0, x, 1)
	r := e.Read(0, x, 1)

	// At this state, the read's last-write set is exactly {X=1}.
	lw := e.LastWrites(r.ID)
	if len(lw) != 1 || lw[0] != w1.ID {
		t.Fatalf("W = %v, want {%d}", lw, w1.ID)
	}
	if vals := e.ReadableValues(r.ID); len(vals) != 1 || vals[0] != 1 {
		t.Fatalf("readable = %v, want [1]", vals)
	}
	if e.IsRace(r.ID) {
		t.Fatal("single-process read is not a race")
	}

	w2 := e.Write(0, x, 2)
	// The read is locally ordered before the new write.
	if !e.ReachableP(0, r.ID, w2.ID) {
		t.Fatal("read must be locally before X=2")
	}
	// But another process does not see that ordering.
	if e.ReachableP(1, r.ID, w2.ID) {
		t.Fatal("local order must be invisible to other processes")
	}
}

// TestFig4Synchronization reproduces Fig. 4's depicted interleaving:
// process 2 acquires first and writes 1 then 2; process 1 then reads 2.
func TestFig4Synchronization(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	// Process 2's critical section.
	a2 := e.Acquire(2, x)
	e.Write(2, x, 1)
	w22 := e.Write(2, x, 2)
	r2 := e.Release(2, x)
	// Process 1's critical section.
	a1 := e.Acquire(1, x)
	rd := e.Read(1, x, 2)
	e.Release(1, x)

	if !e.ReachableG(r2.ID, a1.ID) {
		t.Fatal("release by p2 must be ≺S before acquire by p1")
	}
	// Reads only carry local in-edges, so the chain into the read is
	// completed by p1's own view.
	if !e.ReachableP(1, a2.ID, rd.ID) {
		t.Fatal("whole p2 critical section must precede p1's read in p1's view")
	}
	if !e.ReachableG(a2.ID, a1.ID) {
		t.Fatal("p2's acquire must be globally before p1's acquire")
	}
	lw := e.LastWrites(rd.ID)
	if len(lw) != 1 || lw[0] != w22.ID {
		t.Fatalf("W = %v, want {X=2}", lw)
	}
	if vals := e.ReadableValues(rd.ID); len(vals) != 1 || vals[0] != 2 {
		t.Fatalf("readable = %v, want [2] — every observer agrees on the interleaving", vals)
	}
	if !e.WritesTotallyOrderedG(x) {
		t.Fatal("lock-protected writes must be totally ordered")
	}
}

// fig5 builds the Fig. 5 message-passing execution up to process 2's
// polling read of f, with or without process 1's fences, and returns the
// execution plus the ops needed for assertions.
func fig5(withFences bool) (e *Execution, wX, relX, acqX2, rdX *Op) {
	e = NewExecution()
	x := e.AddLoc("X")
	f := e.AddLoc("f")
	// Process 1.
	e.Acquire(1, x)
	wX = e.Write(1, x, 42)
	if withFences {
		e.Fence(1)
	}
	relX = e.Release(1, x)
	e.Acquire(1, f)
	e.Write(1, f, 1)
	e.Release(1, f)
	// Process 2: poll sees 1 (the depicted iteration), fence, then the
	// synchronized read of X.
	e.Read(2, f, 1)
	if withFences {
		e.Fence(2)
	}
	acqX2 = e.Acquire(2, x)
	rdX = e.Read(2, x, 42)
	e.Release(2, x)
	return e, wX, relX, acqX2, rdX
}

// TestFig5FencedMessagePassing reproduces Fig. 5: with the synchronization
// in place, process 2 is guaranteed to read 42.
func TestFig5FencedMessagePassing(t *testing.T) {
	e, wX, relX, acqX2, rdX := fig5(true)
	if !e.ReachableG(wX.ID, relX.ID) {
		t.Fatal("X=42 ≺P rel X missing")
	}
	if !e.ReachableG(relX.ID, acqX2.ID) {
		t.Fatal("rel X ≺S acq X missing")
	}
	lw := e.LastWrites(rdX.ID)
	if len(lw) != 1 || lw[0] != wX.ID {
		t.Fatalf("W = %v, want exactly {X=42}", lw)
	}
	if vals := e.ReadableValues(rdX.ID); len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("readable = %v, want [42]", vals)
	}
	if e.IsRace(rdX.ID) {
		t.Fatal("fig 5 read must not be racy")
	}
}

// TestFig5FenceEdges checks the specific edge labels the paper draws for
// process 1: acq X ≺P X=42 ≺ℓ fence ≺F rel X, and fence ≺F acq f.
func TestFig5FenceEdges(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	f := e.AddLoc("f")
	aX := e.Acquire(1, x)
	w := e.Write(1, x, 42)
	fe := e.Fence(1)
	rX := e.Release(1, x)
	af := e.Acquire(1, f)

	find := func(from, to int) (Ord, bool) {
		for _, ed := range e.Out(from) {
			if ed.To == to {
				return ed.Ord, true
			}
		}
		return 0, false
	}
	cases := []struct {
		from, to *Op
		want     Ord
	}{
		{aX, w, OrdProgram},
		{w, fe, OrdLocal},
		{fe, rX, OrdFence},
		{aX, fe, OrdFence},
		{fe, af, OrdFence},
	}
	for _, c := range cases {
		got, ok := find(c.from.ID, c.to.ID)
		if !ok {
			t.Errorf("edge %s -> %s missing", c.from, c.to)
			continue
		}
		if got != c.want {
			t.Errorf("edge %s -> %s = %s, want %s", c.from, c.to, got, c.want)
		}
	}
}

// TestFig1BrokenWithoutSynchronization is the model-level Fig. 1: without
// acquire/release on X, polling f does not order the writes, so the read
// of X is racy — it may return the initial value even after seeing f=1.
func TestFig1BrokenWithoutSynchronization(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	f := e.AddLoc("f")
	// Process 1 writes X then f with no synchronization on X.
	e.Write(1, x, 42)
	e.Acquire(1, f)
	e.Write(1, f, 1)
	e.Release(1, f)
	// Process 2 polls f (sees 1), fences, then reads X unsynchronized.
	e.Read(2, f, 1)
	e.Fence(2)
	rd := e.Read(2, x, 0)

	// Without acquiring X, no chain of dependencies leads from X=42 to
	// the read ("there is no way for process 2 to make sure the value 42
	// of X is read, without acquiring it"): W stays at the initial
	// write, and the slow-read rule makes the outcome nondeterministic.
	lw := e.LastWrites(rd.ID)
	if len(lw) != 1 || !e.Op(lw[0]).IsInit {
		t.Fatalf("W = %v, want exactly the initial write", lw)
	}
	vals := e.ReadableValues(rd.ID)
	if len(vals) != 2 || vals[0] != 0 || vals[1] != 42 {
		t.Fatalf("readable = %v, want [0 42] (stale ⊥ or fresh 42): the program is broken", vals)
	}
}

func TestSlowReadsAllowOverwrittenValues(t *testing.T) {
	// Writes propagate slowly: a reader with no synchronization may see
	// any write at-or-after its last-write set, including overwritten
	// values from its own W frontier.
	e := NewExecution()
	x := e.AddLoc("X")
	e.Acquire(1, x)
	e.Write(1, x, 1)
	e.Write(1, x, 2)
	e.Release(1, x)
	rd := e.Read(2, x, 0) // unsynchronized observer
	vals := e.ReadableValues(rd.ID)
	// W = {init} (p2 sees no ordering), so any of ⊥, 1, 2 is readable.
	if len(vals) != 3 {
		t.Fatalf("readable = %v, want 3 values (slow memory)", vals)
	}
}

func TestFenceDoesNotOrderReads(t *testing.T) {
	// Per Table I's fence row, a fence orders subsequent w/R/A but not
	// reads; the read after the fence is ordered only via its acquire.
	e := NewExecution()
	x := e.AddLoc("X")
	f := e.Fence(1)
	rd := e.Read(1, x, 0)
	for _, ed := range e.In(rd.ID) {
		if ed.From == f.ID {
			t.Fatal("fence must not take an edge to a subsequent read")
		}
	}
	w := e.Write(1, x, 1)
	found := false
	for _, ed := range e.In(w.ID) {
		if ed.From == f.ID && ed.Ord == OrdFence {
			found = true
		}
	}
	if !found {
		t.Fatal("fence must order subsequent writes with ≺F")
	}
}

func TestInitEdgesAreGlobal(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	rd := e.Read(3, x, 0)
	for _, ed := range e.In(rd.ID) {
		if e.Op(ed.From).IsInit && !ed.Ord.Global() {
			t.Fatal("edges from the initial operation must be globally visible")
		}
	}
	// And acquires take their ≺S from the init release.
	a := e.Acquire(3, x)
	ok := false
	for _, ed := range e.In(a.ID) {
		if e.Op(ed.From).IsInit && ed.Ord == OrdSync {
			ok = true
		}
	}
	if !ok {
		t.Fatal("acquire must have the init release as ≺S predecessor")
	}
}

func TestExecValidation(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	_ = x
	for name, f := range map[string]func(){
		"read without loc":  func() { e.Exec(KRead, 0, NoLoc, 0, "") },
		"write without loc": func() { e.Exec(KWrite, 0, NoLoc, 0, "") },
		"unknown loc":       func() { e.Exec(KRead, 0, Loc(99), 0, "") },
		"init proc op":      func() { e.Exec(KWrite, InitProc, x, 0, "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestLocationScopedFence covers the Section IV-D extension: a fence on a
// specific location orders exactly like a plain fence for that location and
// not at all for others.
func TestLocationScopedFence(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	y := e.AddLoc("Y")
	wx := e.Write(1, x, 1)
	wy := e.Write(1, y, 2)
	f := e.FenceLoc(1, x)
	ax := e.Acquire(1, x)
	ay := e.Acquire(1, y)

	hasEdge := func(from, to int, ord Ord) bool {
		for _, ed := range e.Out(from) {
			if ed.To == to && ed.Ord == ord {
				return true
			}
		}
		return false
	}
	// The scoped fence collects X's write locally and orders the next
	// acquire of X.
	if !hasEdge(wx.ID, f.ID, OrdLocal) {
		t.Error("write to X must be locally before fence(X)")
	}
	if !hasEdge(f.ID, ax.ID, OrdFence) {
		t.Error("fence(X) must order the next acquire of X")
	}
	// Y is untouched: no edge into or out of the scoped fence.
	if hasEdge(wy.ID, f.ID, OrdLocal) {
		t.Error("fence(X) must not collect writes to Y")
	}
	if hasEdge(f.ID, ay.ID, OrdFence) {
		t.Error("fence(X) must not order acquires of Y")
	}
}

// TestLocationFenceWeakerThanGlobal: a global fence creates a superset of
// the scoped fence's orderings over the same program.
func TestLocationFenceWeakerThanGlobal(t *testing.T) {
	build := func(scoped bool) *Execution {
		e := NewExecution()
		x := e.AddLoc("X")
		y := e.AddLoc("Y")
		e.Write(1, x, 1)
		e.Write(1, y, 2)
		if scoped {
			e.FenceLoc(1, x)
		} else {
			e.Fence(1)
		}
		e.Acquire(1, x)
		e.Acquire(1, y)
		return e
	}
	s, g := build(true), build(false)
	// Every global-view ordering present under the scoped fence must be
	// present under the global fence.
	n := len(s.Ops())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && s.ReachableG(i, j) && !g.ReachableG(i, j) {
				t.Fatalf("ordering %d->%d exists under the scoped fence but not the global one", i, j)
			}
		}
	}
}

func TestDOTOutput(t *testing.T) {
	e, _, _, _, _ := fig5(true)
	dot := e.DOT("fig5")
	for _, want := range []string{"digraph", "cluster_p1", "cluster_p2", "≺S", "≺F", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// randProgram drives an execution from quick-check-generated bytes,
// producing a structurally valid but arbitrarily interleaved program.
func randProgram(e *Execution, script []byte, procs, locs int) {
	var ls []Loc
	for i := 0; i < locs; i++ {
		ls = append(ls, e.AddLoc(string(rune('A'+i))))
	}
	for i := 0; i+2 < len(script); i += 3 {
		p := ProcID(script[i] % byte(procs))
		v := ls[int(script[i+1])%locs]
		switch script[i+2] % 5 {
		case 0:
			e.Read(p, v, Value(script[i+2]))
		case 1:
			e.Write(p, v, Value(script[i+2]))
		case 2:
			e.Acquire(p, v)
		case 3:
			e.Release(p, v)
		case 4:
			e.Fence(p)
		}
	}
}

// Property: any operation stream yields an acyclic graph whose local edges
// connect operations of a single process and whose LastWrites sets are
// never empty.
func TestModelInvariantsProperty(t *testing.T) {
	prop := func(script []byte) bool {
		e := NewExecution()
		randProgram(e, script, 3, 2)
		if e.CheckAcyclic() != nil {
			return false
		}
		for _, es := range e.out {
			for _, ed := range es {
				if ed.Ord == OrdLocal {
					f, to := e.Op(ed.From), e.Op(ed.To)
					if !f.IsInit && f.Proc != to.Proc {
						return false
					}
				}
			}
		}
		for _, op := range e.Ops() {
			if op.Kind == KRead && !op.IsInit {
				if len(e.LastWrites(op.ID)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: ≺G-reachability implies p≺-reachability for every process (the
// per-process view only adds orderings).
func TestGlobalSubsetOfLocalViewProperty(t *testing.T) {
	prop := func(script []byte) bool {
		e := NewExecution()
		randProgram(e, script, 3, 2)
		n := len(e.Ops())
		if n > 24 {
			n = 24
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if e.ReachableG(i, j) {
					for p := ProcID(0); p < 3; p++ {
						if !e.ReachableP(p, i, j) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: lock-disciplined writes (every write inside acquire/release of
// its location, sections serialized) are always totally ordered under ≺G —
// Section IV-D's determinism requirement.
func TestLockDisciplinedWritesTotallyOrderedProperty(t *testing.T) {
	prop := func(sections []uint8) bool {
		e := NewExecution()
		x := e.AddLoc("X")
		val := Value(1)
		for _, s := range sections {
			p := ProcID(s % 4)
			nw := int(s%3) + 1
			e.Acquire(p, x)
			for w := 0; w < nw; w++ {
				e.Write(p, x, val)
				val++
			}
			e.Release(p, x)
		}
		return e.WritesTotallyOrderedG(x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the transitive reduction preserves reachability in both the
// global view and every process view.
func TestReductionPreservesReachabilityProperty(t *testing.T) {
	prop := func(script []byte) bool {
		e := NewExecution()
		randProgram(e, script, 2, 2)
		if len(e.Ops()) > 18 {
			return true // keep the O(n^2) check small
		}
		// Build a reduced copy by filtering edges.
		keep := make(map[Edge]bool)
		for _, ed := range e.ReducedEdges() {
			keep[ed] = true
		}
		reduced := &Execution{}
		*reduced = *e
		reduced.out = make([][]Edge, len(e.out))
		reduced.in = make([][]Edge, len(e.in))
		for i, es := range e.out {
			for _, ed := range es {
				if keep[ed] {
					reduced.out[i] = append(reduced.out[i], ed)
					reduced.in[ed.To] = append(reduced.in[ed.To], ed)
				}
			}
		}
		for i := range e.Ops() {
			for j := range e.Ops() {
				if i == j {
					continue
				}
				if e.ReachableG(i, j) != reduced.ReachableG(i, j) {
					return false
				}
				for p := ProcID(0); p < 2; p++ {
					if e.ReachableP(p, i, j) != reduced.ReachableP(p, i, j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the readable set of any read always contains the value of
// every write in its last-write set (Definition 12 subsumes Definition 11).
func TestReadableSupersetOfLastWritesProperty(t *testing.T) {
	prop := func(script []byte) bool {
		e := NewExecution()
		randProgram(e, script, 3, 2)
		for _, op := range e.Ops() {
			if op.Kind != KRead || op.IsInit {
				continue
			}
			readable := map[Value]bool{}
			for _, v := range e.ReadableValues(op.ID) {
				readable[v] = true
			}
			for _, w := range e.LastWrites(op.ID) {
				v := e.Op(w).Val
				if e.Op(w).IsInit {
					v = 0
				}
				if !readable[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: scoped fences never create orderings a global fence would not —
// FenceLoc is uniformly weaker than Fence over random programs.
func TestScopedFenceWeakerProperty(t *testing.T) {
	prop := func(script []byte) bool {
		build := func(scoped bool) *Execution {
			e := NewExecution()
			locs := []Loc{e.AddLoc("A"), e.AddLoc("B")}
			for i := 0; i+2 < len(script); i += 3 {
				p := ProcID(script[i] % 2)
				v := locs[int(script[i+1])%2]
				switch script[i+2] % 4 {
				case 0:
					e.Write(p, v, Value(i))
				case 1:
					e.Acquire(p, v)
					e.Release(p, v)
				case 2:
					if scoped {
						e.FenceLoc(p, v)
					} else {
						e.Fence(p)
					}
				case 3:
					e.Read(p, v, 0)
				}
			}
			return e
		}
		s, g := build(true), build(false)
		n := len(s.Ops())
		if n != len(g.Ops()) || n > 20 {
			return true // shapes diverge only via op budget; skip large
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && s.ReachableG(i, j) && !g.ReachableG(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTable1ModelOps measures Table I rule application throughput: a
// lock-disciplined op stream grown op by op.
func BenchmarkTable1ModelOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewExecution()
		x := e.AddLoc("X")
		y := e.AddLoc("Y")
		for k := 0; k < 50; k++ {
			p := ProcID(k % 4)
			e.Acquire(p, x)
			e.Write(p, x, Value(k))
			e.Release(p, x)
			e.Fence(p)
			e.Acquire(p, y)
			e.Read(p, y, 0)
			e.Release(p, y)
		}
	}
}

func BenchmarkReadVerification(b *testing.B) {
	e := NewExecution()
	x := e.AddLoc("X")
	for k := 0; k < 40; k++ {
		p := ProcID(k % 3)
		e.Acquire(p, x)
		e.Write(p, x, Value(k))
		e.Release(p, x)
	}
	rd := e.Read(1, x, 39)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ReadableValues(rd.ID)
	}
}

func BenchmarkScopedFenceModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewExecution()
		x := e.AddLoc("X")
		y := e.AddLoc("Y")
		for k := 0; k < 30; k++ {
			p := ProcID(k % 2)
			e.Write(p, x, Value(k))
			e.FenceLoc(p, x)
			e.Acquire(p, y)
			e.Release(p, y)
		}
	}
}
