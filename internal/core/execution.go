package core

import (
	"fmt"

	"pmc/internal/recycle"
)

// Execution is the model of a program's state at one moment in time
// (Definition 1): E = (P, V, O, ≺). P and V grow implicitly as operations
// and locations appear; O and ≺ grow by Exec, which applies the Table I
// transition rules (Definition 4). Orderings between issued operations are
// never removed; Undo only retracts the newest operation as a whole, for
// search that backtracks.
//
// The graph queries (reachability, last-write and readable sets) run on
// search scratch kept in the Execution, so a query writes to it: one
// Execution must not be used from two goroutines at once, not even for
// queries alone.
//
// A finished execution can hand its buffers to the next one (Recycle):
// its ops, edge lists, pattern lists and search scratch keep their
// capacity, and NewExecution draws them back.
type Execution struct {
	ops []*Op
	out [][]Edge
	in  [][]Edge

	// Pattern indexes, used to apply Table I incrementally. Their scopes
	// follow the paper's patterns: per (proc, loc), per proc, or per loc.
	// The tables are slices grown on demand, indexed by location and by
	// proc slot: procs[s] is the process of slot s, interned on its first
	// operation, since ProcIDs are sparse (the runtime recorder's setup
	// process is 1<<20).
	procs     []ProcID
	byProc    []procIndex // per proc slot
	releasesL [][]int     // any process, per location (≺S rule); incl. init
	initOf    []int       // init op per location; its length is the location count

	// Search scratch for the graph queries: op id has been visited by the
	// current search when mark[id] == stamp. queue is the search's work
	// list and found the writes a last-write search collects.
	mark  []uint32
	stamp uint32
	queue []int
	found []int

	// recycled is set by Recycle; every later use panics.
	recycled bool
}

// patterns holds one scope's pattern-index lists, one per kind. In a
// per-proc scope the fence list holds location-less fences; in a
// per-(proc, loc) scope it holds fences scoped to the location (the
// Section IV-D extension).
type patterns [KFence + 1][]int

// procIndex is one process's pattern indexes: any location, and per
// location.
type procIndex struct {
	patterns
	locs []patterns
}

// maxFreeExecutions bounds the free list of recycled executions' buffers.
const maxFreeExecutions = 8

var freeExecutions = recycle.New[Execution](maxFreeExecutions)

// NewExecution returns an initialized, empty execution, on the buffers of
// a recycled one when the free list has one.
func NewExecution() *Execution {
	e := &Execution{}
	if old, ok := freeExecutions.Get(0); ok {
		*e = old
		e.ops = e.ops[:0] // the retired *Ops stay beyond the length for reuse
		e.out = e.out[:0]
		e.in = e.in[:0]
		e.procs = e.procs[:0]
		e.byProc = e.byProc[:0]
		e.releasesL = e.releasesL[:0]
		e.initOf = e.initOf[:0]
	}
	return e
}

// Recycle hands the execution's buffers to the executions NewExecution
// makes after it. Every *Op and edge list read from it may then be
// overwritten by another execution. The execution must not be used
// again: every method panics. Recycling it again does nothing.
func (e *Execution) Recycle() {
	if e.recycled {
		return
	}
	freeExecutions.Put(0, *e)
	*e = Execution{recycled: true}
}

// checkLive panics on a recycled execution.
func (e *Execution) checkLive() {
	if e.recycled {
		panic("core: use of a recycled Execution")
	}
}

// AddLoc introduces a shared location with the given display name and
// issues its initial operation, which behaves like a write and release by
// the pseudo-process ⊥ (Definition 3), so reads and acquires always have a
// predecessor.
func (e *Execution) AddLoc(name string) Loc {
	e.checkLive()
	v := Loc(len(e.initOf))
	op := e.nextOp()
	*op = Op{
		ID:     len(e.ops),
		Kind:   KWrite, // representative kind; IsInit widens the matching
		Proc:   InitProc,
		Loc:    v,
		IsInit: true,
		Label:  fmt.Sprintf("init: %s=⊥", name),
	}
	e.ops = append(e.ops, op)
	e.out = grow(e.out)
	e.in = grow(e.in)
	e.initOf = append(e.initOf, op.ID)
	// The init op participates in the write and release patterns for
	// every process; record it in the per-location list consulted with
	// any-proc scope, and treat per-proc matching specially (eachEarlier).
	e.releasesL = grow(e.releasesL)
	e.releasesL[v] = append(e.releasesL[v], op.ID)
	return v
}

// Ops returns the operations in issue order. The slice is shared; treat it
// as read-only.
func (e *Execution) Ops() []*Op {
	e.checkLive()
	return e.ops
}

// Op returns the operation with the given ID.
func (e *Execution) Op(id int) *Op {
	e.checkLive()
	return e.ops[id]
}

// In returns the in-edges of op id.
func (e *Execution) In(id int) []Edge {
	e.checkLive()
	return e.in[id]
}

// Out returns the out-edges of op id.
func (e *Execution) Out(id int) []Edge {
	e.checkLive()
	return e.out[id]
}

func (e *Execution) addEdge(from, to int, ord Ord) {
	ed := Edge{From: from, To: to, Ord: ord}
	e.out[from] = append(e.out[from], ed)
	e.in[to] = append(e.in[to], ed)
}

// nextOp returns the Op an Undo retired at the next ID, or a new one.
func (e *Execution) nextOp() *Op {
	if n := len(e.ops); n < cap(e.ops) {
		if op := e.ops[:n+1][n]; op != nil {
			return op
		}
	}
	return new(Op)
}

// grow extends lists by one empty list, for a newly issued op or location,
// reusing the backing array an Undo or a recycled execution left beyond
// the length.
func grow[T any](lists [][]T) [][]T {
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
	perProc, perLoc := e.patternsOf(p, v)
	var ids, more []int
	switch {
	case r.Earlier == KFence:
		// Both plain fences and same-location fences order the new
		// operation on v (perLoc is nil for NoLoc).
		ids, more = perProc.of(KFence), perLoc.of(KFence)
	case r.AnyProc:
		ids = e.releasesL[v] // includes init
	case globalFence:
		ids = perProc.of(r.Earlier)
	default:
		if r.Earlier == KWrite && r.New != KFence {
			visit(e.initOf[v]) // the init write matches any proc
		}
		ids = perLoc.of(r.Earlier)
	}
	for _, id := range ids {
		visit(id)
	}
	for _, id := range more {
		visit(id)
	}
}

// slot returns p's proc slot, or -1 when p has issued no operation.
// Executions have a handful of processes, so a scan beats a map.
func (e *Execution) slot(p ProcID) int {
	for s, q := range e.procs {
		if q == p {
			return s
		}
	}
	return -1
}

// patternsOf returns p's pattern lists for any location and for location
// v; either is nil when p has no list there yet (a nil *patterns reads as
// empty).
func (e *Execution) patternsOf(p ProcID, v Loc) (perProc, perLoc *patterns) {
	s := e.slot(p)
	if s < 0 {
		return nil, nil
	}
	pi := &e.byProc[s]
	if v != NoLoc && int(v) < len(pi.locs) {
		perLoc = &pi.locs[v]
	}
	return &pi.patterns, perLoc
}

// of returns the list of kind k, nil for a nil scope.
func (ps *patterns) of(k Kind) []int {
	if ps == nil {
		return nil
	}
	return ps[k]
}

// Exec issues a new operation and applies the Table I rules, returning it
// (Definition 4). val is the written value for writes and the returned
// value for reads; it is ignored for other kinds. Fences must use NoLoc;
// all other kinds need a valid location. The returned *Op stays valid
// until its operation is undone: Exec reuses the Op an Undo retired.
func (e *Execution) Exec(k Kind, p ProcID, v Loc, val Value, label string) *Op {
	e.checkLive()
	// Fences may carry NoLoc (span all locations, the paper's default)
	// or a location (the Section IV-D scoped-fence extension).
	if v != NoLoc && int(v) >= len(e.initOf) {
		panic(fmt.Sprintf("core: op %s on unknown location %d", k, v))
	}
	if k != KFence && v == NoLoc {
		panic(fmt.Sprintf("core: op %s needs a location", k))
	}
	if p == InitProc {
		panic("core: InitProc cannot issue operations")
	}
	op := e.nextOp()
	*op = Op{ID: len(e.ops), Kind: k, Proc: p, Loc: v, Val: val, Label: label}
	e.ops = append(e.ops, op)
	e.out = grow(e.out)
	e.in = grow(e.in)

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
// its state before that operation's Exec: the same Ops, the same edges in
// the same order, the same answers to every query. It is what lets the
// litmus explorer branch on one mutable execution (apply, explore, undo)
// instead of copying it per successor. The newest op has no out-edges, and
// each of its in-edges is the last entry of its predecessor's out-list, so
// undoing is a pop per edge and per pattern-index list. The undone *Op,
// and edge lists returned by In/Out before an Undo, may be overwritten by
// a later Exec. Undo panics when only the locations' initial operations
// remain.
func (e *Execution) Undo() {
	e.checkLive()
	id := len(e.ops) - 1
	if id < 0 || e.ops[id].IsInit {
		panic("core: Undo with no issued operation")
	}
	for _, ed := range e.in[id] {
		out := e.out[ed.From]
		e.out[ed.From] = out[:len(out)-1]
	}
	e.index(e.ops[id], true)
	e.ops = e.ops[:id] // the retired *Op stays beyond the length for reuse
	e.out = e.out[:id]
	e.in = e.in[:id]
}

// index appends op to the pattern-index lists of its kind, or pops it off
// them when undo is set (op is then the last entry of each). Exec interns
// the op's proc slot and grows its per-location table on first use.
func (e *Execution) index(op *Op, undo bool) {
	if op.Kind == KRelease {
		update(&e.releasesL[op.Loc], op.ID, undo)
	}
	s := e.slot(op.Proc)
	if s < 0 {
		s = len(e.procs)
		e.procs = append(e.procs, op.Proc)
		if s < cap(e.byProc) {
			e.byProc = e.byProc[:s+1]
			e.byProc[s].reset()
			e.byProc[s].locs = e.byProc[s].locs[:0]
		} else {
			e.byProc = append(e.byProc, procIndex{})
		}
	}
	pi := &e.byProc[s]
	if op.Kind != KFence || op.Loc == NoLoc {
		update(&pi.patterns[op.Kind], op.ID, undo)
	}
	if op.Loc != NoLoc {
		for n := int(op.Loc) + 1; len(pi.locs) < n; {
			if m := len(pi.locs); m < cap(pi.locs) {
				pi.locs = pi.locs[:m+1]
				pi.locs[m].reset()
			} else {
				pi.locs = append(pi.locs, make([]patterns, n-m)...)
			}
		}
		update(&pi.locs[op.Loc][op.Kind], op.ID, undo)
	}
}

// reset empties every list of the scope, keeping its capacity for a
// recycled execution's next use.
func (ps *patterns) reset() {
	for k := range ps {
		ps[k] = ps[k][:0]
	}
}

// update appends id to *l, or pops the list's last entry when undo is set.
func update(l *[]int, id int, undo bool) {
	if undo {
		*l = (*l)[:len(*l)-1]
	} else {
		*l = append(*l, id)
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
