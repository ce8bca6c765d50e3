package core

import "fmt"

// Execution is the model of a program's state at one moment in time
// (Definition 1): E = (P, V, O, ≺). P and V grow implicitly as operations
// and locations appear; O and ≺ grow by Exec, which applies the Table I
// transition rules (Definition 4). Orderings between issued operations are
// never removed; Undo only retracts the newest operation as a whole, for
// search that backtracks.
type Execution struct {
	locNames []string
	ops      []*Op
	out      [][]Edge
	in       [][]Edge

	// Pattern indexes, used to apply Table I incrementally. Keys follow
	// the paper's patterns: per (proc, loc), per loc, or per proc.
	readsPL    map[procLoc][]int
	writesPL   map[procLoc][]int // initial op included for every proc via init list
	acquiresPL map[procLoc][]int
	releasesPL map[procLoc][]int
	releasesL  map[Loc][]int // any process, per location (≺S rule); incl. init
	readsP     map[ProcID][]int
	writesP    map[ProcID][]int
	acquiresP  map[ProcID][]int
	releasesP  map[ProcID][]int
	fencesP    map[ProcID][]int  // location-less fences
	fencesPL   map[procLoc][]int // location-scoped fences (Section IV-D extension)
	initOf     map[Loc]int
}

type procLoc struct {
	p ProcID
	v Loc
}

// NewExecution returns an initialized, empty execution.
func NewExecution() *Execution {
	return &Execution{
		readsPL:    make(map[procLoc][]int),
		writesPL:   make(map[procLoc][]int),
		acquiresPL: make(map[procLoc][]int),
		releasesPL: make(map[procLoc][]int),
		releasesL:  make(map[Loc][]int),
		readsP:     make(map[ProcID][]int),
		writesP:    make(map[ProcID][]int),
		acquiresP:  make(map[ProcID][]int),
		releasesP:  make(map[ProcID][]int),
		fencesP:    make(map[ProcID][]int),
		fencesPL:   make(map[procLoc][]int),
		initOf:     make(map[Loc]int),
	}
}

// AddLoc introduces a shared location with the given display name and
// issues its initial operation, which behaves like a write and release by
// the pseudo-process ⊥ (Definition 3), so reads and acquires always have a
// predecessor.
func (e *Execution) AddLoc(name string) Loc {
	v := Loc(len(e.locNames))
	e.locNames = append(e.locNames, name)
	op := &Op{
		ID:     len(e.ops),
		Kind:   KWrite, // representative kind; IsInit widens the matching
		Proc:   InitProc,
		Loc:    v,
		IsInit: true,
		Label:  fmt.Sprintf("init: %s=⊥", name),
	}
	e.ops = append(e.ops, op)
	e.out = growEdgeLists(e.out)
	e.in = growEdgeLists(e.in)
	e.initOf[v] = op.ID
	// The init op participates in the write and release patterns for
	// every process; record it in the per-location lists consulted with
	// any-proc scope, and treat per-proc matching specially (matchProc).
	e.releasesL[v] = append(e.releasesL[v], op.ID)
	return v
}

// LocName returns the display name of v.
func (e *Execution) LocName(v Loc) string {
	if v == NoLoc {
		return "*"
	}
	return e.locNames[v]
}

// NumLocs returns how many locations exist.
func (e *Execution) NumLocs() int { return len(e.locNames) }

// Ops returns the operations in issue order. The slice is shared; treat it
// as read-only.
func (e *Execution) Ops() []*Op { return e.ops }

// Op returns the operation with the given ID.
func (e *Execution) Op(id int) *Op { return e.ops[id] }

// Edges returns all dependency edges.
func (e *Execution) Edges() []Edge {
	var all []Edge
	for _, es := range e.out {
		all = append(all, es...)
	}
	return all
}

// In returns the in-edges of op id.
func (e *Execution) In(id int) []Edge { return e.in[id] }

// Out returns the out-edges of op id.
func (e *Execution) Out(id int) []Edge { return e.out[id] }

func (e *Execution) addEdge(from, to int, ord Ord) {
	ed := Edge{From: from, To: to, Ord: ord}
	e.out[from] = append(e.out[from], ed)
	e.in[to] = append(e.in[to], ed)
}

// growEdgeLists extends lists by one empty edge list for a newly issued
// op, reusing the backing array an Undo left beyond the length.
func growEdgeLists(lists [][]Edge) [][]Edge {
	n := len(lists)
	if n == cap(lists) {
		return append(lists, nil)
	}
	lists = lists[:n+1]
	lists[n] = lists[n][:0]
	return lists
}

// eachEarlier calls visit with the ID of every issued operation matching
// the rule's Earlier pattern for a new operation by proc p on loc v (NoLoc
// for global fences), in edge-insertion order. The initial operation of a
// location matches the write and release patterns for any process
// (Definition 3); for writes it comes first.
//
// Location-scoped fences (the optimization Section IV-D mentions: "one
// could offer more complex fences on specific locations") carry a location
// and match only operations on it; a plain fence (NoLoc) spans all
// locations. A location fence in the history likewise only constrains
// operations on its own location.
func (e *Execution) eachEarlier(r Rule, p ProcID, v Loc, visit func(id int)) {
	// The fence column/row widens matching to all locations only for
	// location-less fences.
	globalFence := (r.Earlier == KFence || r.New == KFence) && v == NoLoc
	var ids, more []int
	switch r.Earlier {
	case KRead:
		if globalFence {
			ids = e.readsP[p]
		} else {
			ids = e.readsPL[procLoc{p, v}]
		}
	case KWrite:
		if globalFence {
			ids = e.writesP[p]
		} else {
			if init, ok := e.initOf[v]; ok && r.New != KFence {
				visit(init) // the init write matches any proc
			}
			ids = e.writesPL[procLoc{p, v}]
		}
	case KAcquire:
		if globalFence {
			ids = e.acquiresP[p]
		} else {
			ids = e.acquiresPL[procLoc{p, v}]
		}
	case KRelease:
		switch {
		case r.AnyProc:
			ids = e.releasesL[v] // includes init
		case globalFence:
			ids = e.releasesP[p]
		default:
			ids = e.releasesPL[procLoc{p, v}]
		}
	case KFence:
		ids = e.fencesP[p]
		if v != NoLoc {
			// Both plain fences and same-location fences order
			// the new operation on v.
			more = e.fencesPL[procLoc{p, v}]
		}
	}
	for _, id := range ids {
		visit(id)
	}
	for _, id := range more {
		visit(id)
	}
}

// Exec issues a new operation and applies the Table I rules, returning it
// (Definition 4). val is the written value for writes and the returned
// value for reads; it is ignored for other kinds. Fences must use NoLoc;
// all other kinds need a valid location.
func (e *Execution) Exec(k Kind, p ProcID, v Loc, val Value, label string) *Op {
	// Fences may carry NoLoc (span all locations, the paper's default)
	// or a location (the Section IV-D scoped-fence extension).
	if v != NoLoc && int(v) >= len(e.locNames) {
		panic(fmt.Sprintf("core: op %s on unknown location %d", k, v))
	}
	if k != KFence && v == NoLoc {
		panic(fmt.Sprintf("core: op %s needs a location", k))
	}
	if p == InitProc {
		panic("core: InitProc cannot issue operations")
	}
	op := &Op{ID: len(e.ops), Kind: k, Proc: p, Loc: v, Val: val, Label: label}
	e.ops = append(e.ops, op)
	e.out = growEdgeLists(e.out)
	e.in = growEdgeLists(e.in)

	for _, r := range RulesFor(k) {
		e.eachEarlier(r, p, v, func(from int) {
			ord := r.Ord
			// Edges out of the initial operation are globally
			// visible: every process agrees on the initial state.
			if e.ops[from].IsInit && ord == OrdLocal {
				ord = OrdProgram
			}
			e.addEdge(from, op.ID, ord)
		})
	}
	e.index(op, false)
	return op
}

// Undo removes the newest operation, restoring the execution exactly to
// its state before that operation's Exec: the same Ops, the same Edges in
// the same order, the same answers to every query. It is what lets the
// litmus explorer branch on one mutable execution (apply, explore, undo)
// instead of copying it per successor. The newest op has no out-edges, and
// each of its in-edges is the last entry of its predecessor's out-list, so
// undoing is a pop per edge and per pattern-index list. Edge lists
// returned by In/Out before an Undo may be overwritten by a later Exec.
// Undo panics when only the locations' initial operations remain.
func (e *Execution) Undo() {
	id := len(e.ops) - 1
	if id < 0 || e.ops[id].IsInit {
		panic("core: Undo with no issued operation")
	}
	for _, ed := range e.in[id] {
		out := e.out[ed.From]
		e.out[ed.From] = out[:len(out)-1]
	}
	e.index(e.ops[id], true)
	e.ops[id] = nil
	e.ops = e.ops[:id]
	e.out = e.out[:id]
	e.in = e.in[:id]
}

// index appends op to the pattern-index lists of its kind, or pops it off
// them when undo is set (op is then the last entry of each).
func (e *Execution) index(op *Op, undo bool) {
	p, v, pl := op.Proc, op.Loc, procLoc{op.Proc, op.Loc}
	switch op.Kind {
	case KRead:
		update(e.readsPL, pl, op.ID, undo)
		update(e.readsP, p, op.ID, undo)
	case KWrite:
		update(e.writesPL, pl, op.ID, undo)
		update(e.writesP, p, op.ID, undo)
	case KAcquire:
		update(e.acquiresPL, pl, op.ID, undo)
		update(e.acquiresP, p, op.ID, undo)
	case KRelease:
		update(e.releasesL, v, op.ID, undo)
		update(e.releasesP, p, op.ID, undo)
		update(e.releasesPL, pl, op.ID, undo)
	case KFence:
		if v == NoLoc {
			update(e.fencesP, p, op.ID, undo)
		} else {
			update(e.fencesPL, pl, op.ID, undo)
		}
	}
}

// update appends id to m[key], or pops the list's last entry when undo is
// set.
func update[K comparable](m map[K][]int, key K, id int, undo bool) {
	l := m[key]
	if undo {
		m[key] = l[:len(l)-1]
	} else {
		m[key] = append(l, id)
	}
}

// Convenience issue helpers.

// Read issues a read of v by p that returned val.
func (e *Execution) Read(p ProcID, v Loc, val Value) *Op {
	return e.Exec(KRead, p, v, val, "")
}

// Write issues a write of val to v by p.
func (e *Execution) Write(p ProcID, v Loc, val Value) *Op {
	return e.Exec(KWrite, p, v, val, "")
}

// Acquire issues an acquire of v by p.
func (e *Execution) Acquire(p ProcID, v Loc) *Op {
	return e.Exec(KAcquire, p, v, 0, "")
}

// Release issues a release of v by p.
func (e *Execution) Release(p ProcID, v Loc) *Op {
	return e.Exec(KRelease, p, v, 0, "")
}

// Fence issues a fence by p spanning all locations.
func (e *Execution) Fence(p ProcID) *Op {
	return e.Exec(KFence, p, NoLoc, 0, "")
}

// FenceLoc issues a location-scoped fence by p: it orders only operations
// on v (the optimization Section IV-D mentions). It is strictly weaker
// than Fence.
func (e *Execution) FenceLoc(p ProcID, v Loc) *Op {
	return e.Exec(KFence, p, v, 0, "")
}
