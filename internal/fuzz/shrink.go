package fuzz

import (
	"pmc/internal/core"
	"pmc/internal/litmus"
)

// Delta-debugging shrinker: given a program exhibiting a failure (decided
// by an arbitrary repro predicate) it greedily minimizes the program while
// the failure persists — whole threads first, then instructions (keeping
// entry/exit pairs matched so candidates stay well-formed), then location
// widths, then backend placements (toward a single default backend), then
// write values — iterating to a fixpoint. Candidates that no longer fail, fail
// to explore, or deadlock/livelock on the simulator simply do not
// reproduce and are rejected by the predicate, so the shrinker needs no
// structural knowledge beyond pair matching.

// Repro reports whether a candidate program still exhibits the failure
// being minimized. It must be deterministic.
type Repro func(p litmus.Program) bool

// Shrink minimizes p while repro keeps holding. It returns the minimized
// program and the number of accepted shrink steps. The input program is
// not modified.
func Shrink(p litmus.Program, repro Repro) (litmus.Program, int) {
	cur := cloneProgram(p)
	steps := 0
	for {
		c, ok := shrinkPass(cur, repro)
		if !ok {
			break
		}
		cur = c
		steps++
	}
	cur.Locs = usedLocs(cur)
	if len(cur.Locs) == 0 {
		cur.Locs = p.Locs // degenerate, keep explorable
	}
	if cur.Widths != nil {
		for loc, w := range cur.Widths {
			used := false
			for _, l := range cur.Locs {
				if l == loc {
					used = true
				}
			}
			if !used || w <= 1 {
				delete(cur.Widths, loc)
			}
		}
		if len(cur.Widths) == 0 {
			cur.Widths = nil
		}
	}
	if cur.Placement != nil {
		for loc := range cur.Placement {
			used := false
			for _, l := range cur.Locs {
				if l == loc {
					used = true
				}
			}
			if !used {
				delete(cur.Placement, loc)
			}
		}
		if len(cur.Placement) == 0 {
			cur.Placement = nil
		}
	}
	return cur, steps
}

// shrinkPass tries every single reduction of cur in a fixed order and
// returns the first accepted candidate.
func shrinkPass(cur litmus.Program, repro Repro) (litmus.Program, bool) {
	// 1. Drop a whole thread. An empty thread can survive: a run's
	// per-thread stagger derives from the thread index, so dropping it
	// renumbers the rest and can lose the failure at the printed seed.
	for ti := range cur.Threads {
		if len(cur.Threads) == 1 {
			break
		}
		cand := cloneProgram(cur)
		cand.Threads = append(cand.Threads[:ti:ti], cand.Threads[ti+1:]...)
		if instrCountOK(cand) && repro(cand) {
			return cand, true
		}
	}
	// 2. Drop an instruction (acquire/release as a matched pair).
	for ti := range cur.Threads {
		for j := range cur.Threads[ti] {
			cand, ok := dropInstr(cur, ti, j)
			if ok && instrCountOK(cand) && repro(cand) {
				return cand, true
			}
		}
	}
	// 3. Shrink wide locations: first all the way down to one word, then
	// one word at a time (block instructions on a one-word location are
	// the plain word operations after lowering).
	for _, loc := range usedLocs(cur) {
		w := cur.WidthOf(loc)
		if w <= 1 {
			continue
		}
		cands := []int{1}
		if w > 2 {
			cands = append(cands, w-1)
		}
		for _, nw := range cands {
			cand := cloneProgram(cur)
			if nw <= 1 {
				delete(cand.Widths, loc)
			} else {
				cand.Widths[loc] = nw
			}
			if repro(cand) {
				return cand, true
			}
		}
	}
	// 4. Drop placement entries one at a time: the minimal counterexample
	// shrinks toward every location on the run's single default backend.
	for _, loc := range usedLocs(cur) {
		if cur.Placement[loc] == "" {
			continue
		}
		cand := cloneProgram(cur)
		delete(cand.Placement, loc)
		if repro(cand) {
			return cand, true
		}
	}
	// 5. Shrink write values to 1 (rewriting awaits of the same
	// location/value pair so they stay satisfiable).
	for _, loc := range usedLocs(cur) {
		for _, v := range writeValues(cur, loc) {
			if v == 1 {
				continue
			}
			cand := replaceValue(cur, loc, v, 1)
			if repro(cand) {
				return cand, true
			}
		}
	}
	return litmus.Program{}, false
}

func instrCountOK(p litmus.Program) bool { return litmus.InstrCount(p) > 0 }

func cloneProgram(p litmus.Program) litmus.Program {
	c := p
	c.Locs = append([]string(nil), p.Locs...)
	c.Threads = make([]litmus.Thread, len(p.Threads))
	for i, th := range p.Threads {
		c.Threads[i] = append(litmus.Thread(nil), th...)
	}
	if p.Widths != nil {
		c.Widths = make(map[string]int, len(p.Widths))
		for k, v := range p.Widths {
			c.Widths[k] = v
		}
	}
	if p.Placement != nil {
		c.Placement = make(map[string]string, len(p.Placement))
		for k, v := range p.Placement {
			c.Placement[k] = v
		}
	}
	return c
}

// dropInstr removes instruction j of thread ti; an acquire or release is
// removed together with its matching partner so the candidate keeps the
// static lock discipline. It reports false for an index that no longer
// exists (callers iterate over the pre-drop shape).
func dropInstr(p litmus.Program, ti, j int) (litmus.Program, bool) {
	th := p.Threads[ti]
	if j >= len(th) {
		return litmus.Program{}, false
	}
	drop := map[int]bool{j: true}
	switch th[j].Kind {
	case litmus.IAcquire:
		if k := matchRelease(th, j); k >= 0 {
			drop[k] = true
		}
	case litmus.IRelease:
		if k := matchAcquire(th, j); k >= 0 {
			drop[k] = true
		}
	}
	cand := cloneProgram(p)
	var out litmus.Thread
	for idx, in := range th {
		if !drop[idx] {
			out = append(out, in)
		}
	}
	cand.Threads[ti] = out
	return cand, true
}

// matchRelease finds the release paired with the acquire at index j.
func matchRelease(th litmus.Thread, j int) int {
	loc, depth := th[j].Loc, 0
	for k := j + 1; k < len(th); k++ {
		switch {
		case th[k].Kind == litmus.IAcquire && th[k].Loc == loc:
			depth++
		case th[k].Kind == litmus.IRelease && th[k].Loc == loc:
			if depth == 0 {
				return k
			}
			depth--
		}
	}
	return -1
}

// matchAcquire finds the acquire paired with the release at index j.
func matchAcquire(th litmus.Thread, j int) int {
	loc, depth := th[j].Loc, 0
	for k := j - 1; k >= 0; k-- {
		switch {
		case th[k].Kind == litmus.IRelease && th[k].Loc == loc:
			depth++
		case th[k].Kind == litmus.IAcquire && th[k].Loc == loc:
			if depth == 0 {
				return k
			}
			depth--
		}
	}
	return -1
}

// writeValues returns the distinct values written to loc, in program
// order of first appearance.
func writeValues(p litmus.Program, loc string) []core.Value {
	var vals []core.Value
	seen := map[core.Value]bool{}
	for _, th := range p.Threads {
		for _, in := range th {
			if in.Kind == litmus.IWrite && in.Loc == loc && !seen[in.Val] {
				seen[in.Val] = true
				vals = append(vals, in.Val)
			}
		}
	}
	return vals
}

// replaceValue rewrites writes and awaits of (loc, old) to value new.
func replaceValue(p litmus.Program, loc string, old, new core.Value) litmus.Program {
	cand := cloneProgram(p)
	for _, th := range cand.Threads {
		for i, in := range th {
			if in.Loc == loc && in.Val == old &&
				(in.Kind == litmus.IWrite || in.Kind == litmus.IAwaitEq) {
				th[i].Val = new
			}
		}
	}
	return cand
}
