package core

import (
	"fmt"
	"sort"
)

// visible reports whether edge ed is visible to viewer: global edges are
// visible to everyone; local edges only to the process that executed them
// (Definition 6). Local edges connect operations of one process, so the
// owner is the To-endpoint's process.
func (e *Execution) visible(ed Edge, viewer ProcID) bool {
	if ed.Ord.Global() {
		return true
	}
	return e.ops[ed.To].Proc == viewer
}

// ReachableG reports from ≺G to: a path of globally visible edges
// (Definition 9). Reflexive only when from == to and allowEqual.
func (e *Execution) ReachableG(from, to int) bool {
	return e.reachable(from, to, InitProc)
}

// ReachableP reports from p≺ to for viewer p: a path mixing global edges
// and p's own local edges (Definition 10).
func (e *Execution) ReachableP(p ProcID, from, to int) bool {
	return e.reachable(from, to, p)
}

// reachable runs a forward BFS over edges visible to viewer (InitProc
// means "global edges only", since no local edge is owned by ⊥).
func (e *Execution) reachable(from, to int, viewer ProcID) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(e.ops))
	queue := []int{from}
	seen[from] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, ed := range e.out[n] {
			if !e.visible(ed, viewer) || seen[ed.To] {
				continue
			}
			if ed.To == to {
				return true
			}
			seen[ed.To] = true
			queue = append(queue, ed.To)
		}
	}
	return false
}

// LastWrites returns W_o (Definition 11) for operation o: the maximal
// writes to o's location that are ordered before o in the view of o's
// process. It never returns an empty set — at minimum the location's
// initial write qualifies.
func (e *Execution) LastWrites(o int) []int {
	op := e.ops[o]
	if op.Loc == NoLoc {
		panic("core: LastWrites of a fence")
	}
	viewer := op.Proc
	// Backward BFS over edges visible to the viewer.
	seen := make([]bool, len(e.ops))
	var visibleWrites []int
	queue := []int{o}
	seen[o] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, ed := range e.in[n] {
			if !e.visible(ed, viewer) || seen[ed.From] {
				continue
			}
			seen[ed.From] = true
			f := e.ops[ed.From]
			if (f.Kind == KWrite || f.IsInit) && f.Loc == op.Loc {
				visibleWrites = append(visibleWrites, ed.From)
			}
			queue = append(queue, ed.From)
		}
	}
	if len(visibleWrites) == 0 {
		// Unreachable if the location was created via AddLoc.
		panic(fmt.Sprintf("core: no initial write reachable from %s", op))
	}
	return e.maximalWrites(visibleWrites, viewer)
}

// maximalWrites keeps the p≺-maximal elements of visibleWrites: a is
// dropped when some other b in the set is viewer-reachable from it.
func (e *Execution) maximalWrites(visibleWrites []int, viewer ProcID) []int {
	var maximal []int
	for _, a := range visibleWrites {
		dominated := false
		for _, b := range visibleWrites {
			if a != b && e.reachable(a, b, viewer) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, a)
		}
	}
	sort.Ints(maximal)
	return maximal
}

// LastWritesAt returns W for a hypothetical read of v by p issued against
// the current execution, without mutating it. It is equivalent to
//
//	op := e.Read(p, v, 0); w := e.LastWrites(op.ID); e.Undo()
//
// but touches no state: the read's would-be in-edges are computed from the
// Table I read rules, and the backward search starts from those
// predecessors. Every in-edge of a new read is visible to p (global edges
// are visible to all, and a local in-edge's To-endpoint is the read by p),
// so the multi-source search over p-visible edges matches the issued-probe
// result exactly.
func (e *Execution) LastWritesAt(p ProcID, v Loc) []int {
	if v == NoLoc {
		panic("core: LastWritesAt of a fence")
	}
	seen := make([]bool, len(e.ops))
	var queue []int
	for _, r := range RulesFor(KRead) {
		e.eachEarlier(r, p, v, func(from int) {
			if !seen[from] {
				seen[from] = true
				queue = append(queue, from)
			}
		})
	}
	var visibleWrites []int
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		f := e.ops[n]
		if (f.Kind == KWrite || f.IsInit) && f.Loc == v {
			visibleWrites = append(visibleWrites, n)
		}
		for _, ed := range e.in[n] {
			if !e.visible(ed, p) || seen[ed.From] {
				continue
			}
			seen[ed.From] = true
			queue = append(queue, ed.From)
		}
	}
	if len(visibleWrites) == 0 {
		panic(fmt.Sprintf("core: no initial write reachable for read of v%d by p%d", v, p))
	}
	return e.maximalWrites(visibleWrites, p)
}

// IsRace reports whether reading at operation o is nondeterministic:
// |W_o| > 1 (Section IV-D).
func (e *Execution) IsRace(o int) bool { return len(e.LastWrites(o)) > 1 }

// ReadableFrom returns the IDs of the writes a read at o's position by o's
// process may return (Definition 12): every write b to the location such
// that a p⪯ b for some a ∈ W_o. The result includes writes not yet ordered
// w.r.t. o ("any value that is written afterwards"); callers that model a
// concrete moment in time (the litmus explorer) intersect with the
// already-issued set and apply per-process read monotonicity.
func (e *Execution) ReadableFrom(o int) []int {
	op := e.ops[o]
	return e.readableFromW(e.LastWrites(o), op.Loc, op.Proc, o)
}

// ReadableAt returns the writes a read of v by p could return if it were
// issued against the current execution (Definition 12), computed without
// mutating it. It matches a probe read followed by ReadableFrom and Undo;
// the litmus explorer uses it to enumerate read candidates on the live
// graph before it applies any of them.
func (e *Execution) ReadableAt(p ProcID, v Loc) []int {
	return e.readableFromW(e.LastWritesAt(p, v), v, p, -1)
}

// readableFromW expands a last-write set W into the full readable set:
// every write b to v with a p⪯ b for some a ∈ W. skip (an op ID, or -1)
// excludes the read itself when W came from an issued operation.
func (e *Execution) readableFromW(w []int, v Loc, viewer ProcID, skip int) []int {
	inW := make(map[int]bool, len(w))
	for _, a := range w {
		inW[a] = true
	}
	var out []int
	for _, b := range e.ops {
		if b.ID == skip {
			continue
		}
		if !(b.Kind == KWrite || b.IsInit) || b.Loc != v {
			continue
		}
		ok := inW[b.ID]
		if !ok {
			for _, a := range w {
				if e.reachable(a, b.ID, viewer) {
					ok = true
					break
				}
			}
		}
		if ok {
			out = append(out, b.ID)
		}
	}
	sort.Ints(out)
	return out
}

// ReadableValues returns the distinct values of ReadableFrom(o).
func (e *Execution) ReadableValues(o int) []Value {
	var vals []Value
	seen := make(map[Value]bool)
	for _, b := range e.ReadableFrom(o) {
		v := e.ops[b].Val
		if e.ops[b].IsInit {
			v = 0 // ⊥ reads as the zero value
		}
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// WritesTotallyOrderedG reports whether all writes to v (including the
// initial one) are in total ≺G order — the paper's requirement for
// deterministic, data-race-free programs ("all writes to a single location
// must be in total order", Section IV-D).
func (e *Execution) WritesTotallyOrderedG(v Loc) bool {
	var ws []int
	for _, op := range e.ops {
		if (op.Kind == KWrite || op.IsInit) && op.Loc == v {
			ws = append(ws, op.ID)
		}
	}
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			if !e.ReachableG(ws[i], ws[j]) && !e.ReachableG(ws[j], ws[i]) {
				return false
			}
		}
	}
	return true
}

// CheckAcyclic verifies ≺ is a partial order (no cycles). Rule application
// only adds edges from older to newer operations, so this should hold by
// construction; it is exposed for property tests.
func (e *Execution) CheckAcyclic() error {
	for _, es := range e.out {
		for _, ed := range es {
			if ed.From >= ed.To {
				return fmt.Errorf("core: edge %d->%d does not respect issue order", ed.From, ed.To)
			}
		}
	}
	return nil
}
