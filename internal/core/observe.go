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
// (Definition 9). Reflexive: ReachableG(o, o) holds for every o.
func (e *Execution) ReachableG(from, to int) bool {
	e.checkLive()
	return e.reachable(from, to, InitProc)
}

// ReachableP reports from p≺ to for viewer p: a path mixing global edges
// and p's own local edges (Definition 10). Reflexive like ReachableG.
func (e *Execution) ReachableP(p ProcID, from, to int) bool {
	e.checkLive()
	return e.reachable(from, to, p)
}

// newSearch starts a graph search on the Execution's scratch: it empties
// the work queue, covers every op with mark, and returns a stamp no op is
// marked with yet. When the stamp wraps, every mark is cleared, so a mark
// left by a search 2³² searches ago cannot alias the new one.
func (e *Execution) newSearch() uint32 {
	if n := len(e.ops); len(e.mark) < n {
		e.mark = append(e.mark, make([]uint32, n-len(e.mark))...)
	}
	e.stamp++
	if e.stamp == 0 {
		clear(e.mark)
		e.stamp = 1
	}
	e.queue = e.queue[:0]
	return e.stamp
}

// push marks op id as visited by the search st and queues it, unless it
// already is.
func (e *Execution) push(st uint32, id int) {
	if e.mark[id] != st {
		e.mark[id] = st
		e.queue = append(e.queue, id)
	}
}

// reachable runs a forward search over edges visible to viewer (InitProc
// means "global edges only", since no local edge is owned by ⊥). Every
// edge runs from an older to a newer op, so ops newer than to are pruned.
func (e *Execution) reachable(from, to int, viewer ProcID) bool {
	if from == to {
		return true
	}
	return e.reachesAny(from, []int{to}, viewer)
}

// reachesAny reports whether some op of targets (ascending, non-empty, not
// containing from) is reachable from from over edges visible to viewer.
func (e *Execution) reachesAny(from int, targets []int, viewer ProcID) bool {
	last := targets[len(targets)-1]
	st := e.newSearch()
	e.push(st, from)
	for i := 0; i < len(e.queue); i++ {
		for _, ed := range e.out[e.queue[i]] {
			if ed.To > last || e.mark[ed.To] == st || !e.visible(ed, viewer) {
				continue
			}
			for _, t := range targets {
				if t == ed.To {
					return true
				}
			}
			e.push(st, ed.To)
		}
	}
	return false
}

// lastWritesFrom finishes a last-write search whose seeds newSearch's
// stamp st already marked and queued: it walks backward over edges visible
// to viewer, collects every visited write to v other than skip (seeds
// included), and returns the p≺-maximal ones, ascending, in the
// Execution's scratch.
func (e *Execution) lastWritesFrom(st uint32, v Loc, viewer ProcID, skip int) []int {
	e.found = e.found[:0]
	for i := 0; i < len(e.queue); i++ {
		n := e.queue[i]
		if f := e.ops[n]; n != skip && (f.Kind == KWrite || f.IsInit) && f.Loc == v {
			e.found = append(e.found, n)
		}
		for _, ed := range e.in[n] {
			if e.visible(ed, viewer) {
				e.push(st, ed.From)
			}
		}
	}
	return e.maximalWrites(e.found, viewer)
}

// maximalWrites keeps the p≺-maximal elements of ws in place: a is dropped
// when some other b in ws is viewer-reachable from it. Edges run from
// older to newer ops, so once ws is sorted only later elements can
// dominate an earlier one, and the kept prefix never overwrites them.
func (e *Execution) maximalWrites(ws []int, viewer ProcID) []int {
	sort.Ints(ws)
	k := 0
	for i, a := range ws {
		if i == len(ws)-1 || !e.reachesAny(a, ws[i+1:], viewer) {
			ws[k] = a
			k++
		}
	}
	return ws[:k]
}

// lastWrites returns W_o (Definition 11) for operation o, in the
// Execution's scratch: the maximal writes to o's location that are ordered
// before o in the view of o's process. It never returns an empty set — at
// minimum the location's initial write qualifies.
func (e *Execution) lastWrites(o int) []int {
	op := e.ops[o]
	if op.Loc == NoLoc {
		panic("core: lastWrites of a fence")
	}
	st := e.newSearch()
	e.push(st, o)
	w := e.lastWritesFrom(st, op.Loc, op.Proc, o)
	if len(w) == 0 {
		// Unreachable if the location was created via AddLoc.
		panic(fmt.Sprintf("core: no initial write reachable from %s", op))
	}
	return w
}

// lastWritesAt returns W for a hypothetical read of v by p issued against
// the current execution, without adding it, in the Execution's scratch.
// It is equivalent to
//
//	op := e.Read(p, v, 0); w := e.lastWrites(op.ID); e.Undo()
//
// but issues nothing: the read's would-be in-edges are computed from the
// Table I read rules, and the backward search starts from those
// predecessors. Every in-edge of a new read is visible to p (global edges
// are visible to all, and a local in-edge's To-endpoint is the read by p),
// so the multi-source search over p-visible edges matches the issued-probe
// result exactly.
func (e *Execution) lastWritesAt(p ProcID, v Loc) []int {
	if v == NoLoc {
		panic("core: lastWritesAt of a fence")
	}
	st := e.newSearch()
	for _, r := range RulesFor(KRead) {
		e.eachEarlier(r, p, v, func(from int) { e.push(st, from) })
	}
	w := e.lastWritesFrom(st, v, p, -1)
	if len(w) == 0 {
		panic(fmt.Sprintf("core: no initial write reachable for read of v%d by p%d", v, p))
	}
	return w
}

// ReadableFrom returns the IDs of the writes a read at o's position by o's
// process may return (Definition 12): every write b to the location such
// that a p⪯ b for some a ∈ W_o. The result includes writes not yet ordered
// w.r.t. o ("any value that is written afterwards"); callers that model a
// concrete moment in time (the litmus explorer) intersect with the
// already-issued set and apply per-process read monotonicity.
func (e *Execution) ReadableFrom(o int) []int {
	e.checkLive()
	op := e.ops[o]
	return e.readableFromW(e.lastWrites(o), op.Loc, op.Proc, o)
}

// ReadableAt returns the writes a read of v by p could return if it were
// issued against the current execution (Definition 12), computed without
// adding it. It matches a probe read followed by ReadableFrom and Undo;
// the litmus explorer uses it to enumerate read candidates on the live
// graph before it applies any of them.
func (e *Execution) ReadableAt(p ProcID, v Loc) []int {
	e.checkLive()
	return e.readableFromW(e.lastWritesAt(p, v), v, p, -1)
}

// readableFromW expands a last-write set W into the full readable set:
// every write b to v with a p⪯ b for some a ∈ W, ascending. One forward
// search from all of W marks exactly those ops; it stops at the newest
// write to v, since edges run from older to newer ops. skip (an op ID, or
// -1) excludes the read itself when W came from an issued operation.
func (e *Execution) readableFromW(w []int, v Loc, viewer ProcID, skip int) []int {
	last := e.newestWrite(v)
	st := e.newSearch()
	for _, a := range w {
		e.push(st, a)
	}
	for i := 0; i < len(e.queue); i++ {
		for _, ed := range e.out[e.queue[i]] {
			if ed.To <= last && e.visible(ed, viewer) {
				e.push(st, ed.To)
			}
		}
	}
	var out []int
	for _, b := range e.ops[:last+1] {
		if b.ID != skip && (b.Kind == KWrite || b.IsInit) && b.Loc == v && e.mark[b.ID] == st {
			out = append(out, b.ID)
		}
	}
	return out
}

// newestWrite returns the ID of the newest write to v, or of its initial
// op when no process has written it.
func (e *Execution) newestWrite(v Loc) int {
	last := e.initOf[v]
	for s := range e.byProc {
		if locs := e.byProc[s].locs; int(v) < len(locs) {
			if l := locs[v][KWrite]; len(l) > 0 {
				last = max(last, l[len(l)-1])
			}
		}
	}
	return last
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
