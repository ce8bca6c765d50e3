package litmus

import (
	"sync"
	"sync/atomic"
)

// This file is the exploration engine behind Explorer.Run. Three modes
// share one recursive core:
//
//   - sequential tree enumeration (Workers=1, Memoize=false): the
//     reference semantics — every interleaving/read-choice path is walked
//     individually;
//   - memoized counting DFS (Memoize=true): states are keyed by their
//     canonical fingerprint (fingerprint.go) in one memo map behind a
//     mutex; the subtree below a state is explored once and its outcome
//     counts reused for every converging interleaving. Because the counts
//     are of completions *from* the state, summing them once per incoming
//     path reproduces tree counts exactly;
//   - worker-pool frontier mode (Workers>1): the root is expanded
//     breadth-first into a frontier of independent subtrees which a pool of
//     workers explores concurrently. Merging is pure addition of counts —
//     commutative and associative — so the result is bit-identical
//     run-to-run and identical to the sequential modes regardless of
//     scheduling. The shared memo map additionally dedupes states across
//     subtrees (two frontier subtrees can converge); sequential and
//     parallel runs take the same path through it.
//
// Outcome counts are interned: the engine numbers each outcome string on
// first sight, and a subtree's result is a sorted slice of (id, count)
// pairs, immutable once built. A completed state returns its outcome's
// shared one-path result, and a state with several successors sums them
// into a stack buffer and allocates one exact-size slice. Run turns the
// root's counts back into names, so no output depends on an id.
//
// Every mode explores in place: one mutable state per goroutine, branched
// by applying a move, exploring, and undoing the move (litmus.go), so no
// state or execution is ever copied. Frontier entries are therefore move
// paths from the root; each worker replays an entry's path onto a root
// state of its own, explores, and rewinds.
//
// Determinism of Result.States: without memoization every tree node is
// counted exactly once (frontier interiors during expansion, the rest by
// the recursive walk). With memoization the count is the number of
// distinct canonical states, claimed once via the memo table; concurrent
// workers reaching an in-flight state block on its entry instead of
// recomputing, so the claim — and the count — happens once per state.
// Since one exploration step always advances exactly one pc, a state's
// depth (Σ pcs) is fixed, so frontier interiors can never reappear inside
// a subtree and the two counting sites never overlap.

// outcomeCount is one entry of a subResult: n paths end in the outcome
// with interned id (engine.leaf), or in a stuck leaf when id is stuckID.
type outcomeCount struct {
	id int32
	n  int
}

// stuckID is the pseudo-outcome id counting stuck leaves; it sorts first.
const stuckID int32 = -1

// subResult is the outcome of exploring one subtree: completions per
// outcome and stuck leaves reachable from its root, counted per path and
// sorted by id. Built results are immutable and shared — by memo entries,
// by every parent that reaches them, and (for a completed leaf) by every
// state with that outcome; only a private accumulator is ever extended
// with add. nil is the empty result of an aborted subtree.
type subResult []outcomeCount

// add merges o, scaled by mult (the number of distinct paths that led to
// o's root), into the accumulator acc and returns it. Both are sorted by
// id, so one forward pass places every entry.
func (acc subResult) add(o subResult, mult int) subResult {
	i := 0
	for _, c := range o {
		for i < len(acc) && acc[i].id < c.id {
			i++
		}
		if i < len(acc) && acc[i].id == c.id {
			acc[i].n += c.n * mult
			continue
		}
		acc = append(acc, outcomeCount{})
		copy(acc[i+1:], acc[i:])
		acc[i] = outcomeCount{id: c.id, n: c.n * mult}
	}
	return acc
}

// stuckLeaf is the shared result of a stuck state.
var stuckLeaf = subResult{{id: stuckID, n: 1}}

// cacheEntry is one memo-table slot. The goroutine that creates it
// computes res/err and calls done.Done; others wait on done. The state
// graph is a DAG (each step advances one pc), so waits always point
// "downward" and cannot cycle.
type cacheEntry struct {
	done sync.WaitGroup
	res  subResult
	err  error
}

// engine holds the mutable exploration context for one Run.
type engine struct {
	x         *Explorer
	memoize   bool
	maxStates int64
	states    atomic.Int64
	budgetHit atomic.Bool

	// mu guards the memo table and the outcome intern table, which every
	// worker shares.
	mu    sync.Mutex
	cache map[fingerprint]*cacheEntry // fingerprint/canonical fingerprint
	// ids interns outcome strings in discovery order: names[id] is the
	// outcome and leaves[id] its shared one-path result. Under parallel
	// exploration discovery order depends on scheduling, so no output may
	// depend on an id; Run reports outcomes by name.
	ids    map[string]int32
	names  []string
	leaves []subResult

	// claimed dedups expansion-phase state claims by canonical
	// fingerprint in symmetry mode, so Result.States counts orbits
	// identically for every worker count. Only touched from the
	// single-threaded frontier-expansion loop.
	claimed map[fingerprint]bool
}

// newEngine returns the exploration context for one Run of the prepared
// explorer x. When x has automorphisms (Explorer.auts, empty = plain
// memoization) the memo table is keyed by the orbit-canonical fingerprint
// and stores results in the canonical register frame (see symmetry.go).
func newEngine(x *Explorer) *engine {
	g := &engine{x: x, memoize: x.Memoize, maxStates: int64(x.MaxStates), ids: make(map[string]int32)}
	if x.Memoize {
		g.cache = make(map[fingerprint]*cacheEntry)
	}
	if x.Symmetry {
		g.claimed = make(map[fingerprint]bool)
	}
	return g
}

// lookup returns the memo entry for fp and whether it already existed.
// A new entry belongs to the caller, who must fill it and call done.Done.
func (g *engine) lookup(fp fingerprint) (*cacheEntry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.cache[fp]; ok {
		return e, true
	}
	e := new(cacheEntry)
	e.done.Add(1)
	g.cache[fp] = e
	return e, false
}

// leaf returns the shared result of a completed state: one path to the
// outcome its registers render to. The outcome is rendered into a stack
// buffer, so a known outcome costs no allocation.
func (g *engine) leaf(s *state) subResult {
	var buf [64]byte
	_, res := g.intern(g.x.appendCanonical(buf[:0], s.regs))
	return res
}

// intern returns the id of the outcome rendered in b, and its shared
// one-path result, interning the outcome on first sight.
func (g *engine) intern(b []byte) (int32, subResult) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id, ok := g.ids[string(b)]
	if !ok {
		id = int32(len(g.names))
		name := string(b)
		g.ids[name] = id
		g.names = append(g.names, name)
		g.leaves = append(g.leaves, subResult{{id: id, n: 1}})
	}
	return id, g.leaves[id]
}

// name returns the outcome interned as id.
func (g *engine) name(id int32) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.names[id]
}

// result renders the root's subResult as a Result, by outcome name.
func (g *engine) result(res subResult) *Result {
	out := &Result{Outcomes: make(map[string]int, len(res)), States: int(g.states.Load())}
	for _, c := range res {
		if c.id == stuckID {
			out.Stuck = c.n
		} else {
			out.Outcomes[g.name(c.id)] = c.n
		}
	}
	return out
}

// explore returns the subResult for s, consulting the memo table when
// enabled. Results from the table are shared and must not be mutated.
func (g *engine) explore(s *state) (subResult, error) {
	if !g.memoize {
		return g.compute(s)
	}
	if len(g.x.auts) > 0 {
		return g.exploreSym(s)
	}
	e, hit := g.lookup(g.x.fingerprint(s))
	if hit {
		e.done.Wait()
		return e.res, e.err
	}
	e.res, e.err = g.compute(s)
	e.done.Done()
	return e.res, e.err
}

// canonicalFP returns the orbit-canonical fingerprint of s — the minimum
// over the finalisations of every frame's accumulator, the identity and
// each automorphism — plus the permutation achieving it (nil when the
// identity frame wins).
func (g *engine) canonicalFP(s *state) (fingerprint, *autPerm) {
	best := g.x.fingerprint(s)
	var bestPerm *autPerm
	for i, p := range g.x.auts {
		if fp := g.x.fingerprintIn(s, i+1); fp.less(best) {
			best, bestPerm = fp, p
		}
	}
	return best, bestPerm
}

// exploreSym is explore under symmetry reduction: memo entries are keyed
// by orbit and stored in the canonical register frame — the frame of the
// achieving permutation — so a hit from any orbit member translates the
// shared outcome counts into its own frame. Each stored permutation is
// individually a program automorphism, which is all translation needs;
// the set need not be closed under composition.
func (g *engine) exploreSym(s *state) (subResult, error) {
	fp, perm := g.canonicalFP(s)
	e, hit := g.lookup(fp)
	if hit {
		return g.translated(e, perm)
	}
	res, err := g.compute(s)
	if err != nil {
		e.err = err
	} else if perm != nil {
		e.res = g.translateSub(res, perm.regTo)
	} else {
		e.res = res
	}
	e.done.Done()
	return res, err
}

// translated waits for a memo entry and maps its canonical-frame result
// back into the frame of the state that hit it.
func (g *engine) translated(pe *cacheEntry, perm *autPerm) (subResult, error) {
	pe.done.Wait()
	if pe.err != nil {
		return nil, pe.err
	}
	if perm == nil {
		return pe.res, nil
	}
	return g.translateSub(pe.res, perm.regFrom), nil
}

// claimState takes one slot of the state budget, flipping budgetHit when
// work remains past it. Exactly one claim happens per counted state.
func (g *engine) claimState() bool {
	if g.budgetHit.Load() {
		return false
	}
	if n := g.states.Add(1); n > g.maxStates {
		g.budgetHit.Store(true)
		return false
	}
	return true
}

// expandState classifies one claimed state: a completed execution (done),
// or its enabled moves appended to ms (none = stuck), all computed on s
// before any is applied. Both the recursive walk and the frontier
// expansion go through here so terminal-state and stepping semantics live
// in one place.
func (g *engine) expandState(ms []move, s *state) (done bool, _ []move, err error) {
	allDone := true
	for t := range g.x.prog.Threads {
		if s.pcs[t] < len(g.x.prog.Threads[t]) {
			allDone = false
			break
		}
	}
	if allDone {
		return true, ms, nil
	}
	for t := range g.x.prog.Threads {
		if ms, err = g.x.moves(ms, s, t); err != nil {
			return false, nil, err
		}
	}
	return false, ms, nil
}

// compute walks one state: claims a slot of the state budget, returns the
// outcome's shared leaf for complete states, and otherwise explores each
// successor by applying its move to s, recursing, and undoing the move —
// s is back to its entry value when compute returns, error or not. The
// children's counts are summed in a stack buffer and copied out once; a
// state with one successor shares its child's result.
func (g *engine) compute(s *state) (subResult, error) {
	if !g.claimState() {
		return nil, nil
	}
	var buf [8]move // most states' moves fit, so ms stays on the stack
	done, ms, err := g.expandState(buf[:0], s)
	switch {
	case err != nil:
		return nil, err
	case done:
		return g.leaf(s), nil
	case len(ms) == 0:
		return stuckLeaf, nil
	case len(ms) == 1:
		tr := g.x.apply(s, ms[0])
		sub, err := g.explore(s)
		g.x.undo(s, ms[0], tr)
		return sub, err
	}
	var sum [16]outcomeCount
	acc := subResult(sum[:0])
	for _, m := range ms {
		tr := g.x.apply(s, m)
		sub, err := g.explore(s)
		g.x.undo(s, m, tr)
		if err != nil {
			return nil, err
		}
		acc = acc.add(sub, 1)
	}
	res := make(subResult, len(acc))
	copy(res, acc)
	return res, nil
}

// claimFrontier claims the expansion-phase budget slot for a frontier
// state. In symmetry mode a slot is taken once per orbit — matching the
// sequential memoized count — and later orientations of an already
// claimed orbit still expand (their successors carry distinct register
// frames) but cost nothing. Frontier expansion happens before any
// worker runs and every exploration step advances exactly one pc, so
// expansion-phase orbits (shallower than the frontier) can never recur
// inside a worker subtree: the claimed set and the memo table count
// disjoint orbits. Returns false when the budget is exhausted.
func (g *engine) claimFrontier(s *state) bool {
	if len(g.x.auts) == 0 {
		return g.claimState()
	}
	fp, _ := g.canonicalFP(s)
	if g.claimed[fp] {
		return true
	}
	if !g.claimState() {
		return false
	}
	g.claimed[fp] = true
	return true
}

// frontierEntry is one root of a parallel subtree, named by the moves
// that lead to it from the initial state; mult is the number of distinct
// prefix paths that reached it (always 1 without memoization, where
// duplicates stay separate entries).
type frontierEntry struct {
	path []move
	mult int
}

// replay applies path to s and returns the trails that rewind needs.
func (g *engine) replay(s *state, path []move) []trail {
	trs := make([]trail, len(path))
	for i, m := range path {
		trs[i] = g.x.apply(s, m)
	}
	return trs
}

// rewind undoes a replayed path, newest move first.
func (g *engine) rewind(s *state, path []move, trs []trail) {
	for i := len(path) - 1; i >= 0; i-- {
		g.x.undo(s, path[i], trs[i])
	}
}

// runParallel expands the root breadth-first until the frontier offers
// enough independent work for the pool, folding completed and stuck
// prefixes into the result as it goes, then fans the frontier out to
// workers goroutines. With memoization the frontier is deduplicated by
// fingerprint, carrying path multiplicities, which keeps the distinct-
// state count identical to a sequential memoized run.
//
// Frontier entries are move paths, not states: expansion replays each
// path onto root and rewinds it, and every worker replays its entries
// onto a root of its own (newRoot), so states are never copied and no two
// goroutines touch one state.
func (g *engine) runParallel(root *state, workers int) (subResult, error) {
	var res subResult
	frontier := []frontierEntry{{mult: 1}}
	target := workers * 4
	for len(frontier) > 0 && len(frontier) < target {
		var next []frontierEntry
		var nextIdx map[fingerprint]int
		if g.memoize {
			nextIdx = make(map[fingerprint]int)
		}
		for _, en := range frontier {
			var stop bool
			var err error
			if next, stop, err = g.expandEntry(root, en, &res, next, nextIdx); err != nil {
				return nil, err
			}
			if stop {
				return res, nil
			}
		}
		frontier = next
	}
	if len(frontier) == 0 {
		return res, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		nextIdx  atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := g.x.newRoot()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				en := frontier[i]
				trs := g.replay(s, en.path)
				sub, err := g.explore(s)
				g.rewind(s, en.path, trs)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					res = res.add(sub, en.mult)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// expandEntry replays the frontier entry en onto the root state s and
// expands it: a completed or stuck state folds into the accumulator res,
// otherwise each successor's path is appended to next (deduplicated
// through nextIdx when memoizing). s is rewound on return; stop reports an
// exhausted budget.
func (g *engine) expandEntry(s *state, en frontierEntry, res *subResult, next []frontierEntry, nextIdx map[fingerprint]int) (_ []frontierEntry, stop bool, err error) {
	trs := g.replay(s, en.path)
	defer g.rewind(s, en.path, trs)
	if !g.claimFrontier(s) {
		return next, true, nil
	}
	done, ms, err := g.expandState(nil, s)
	if err != nil {
		return next, false, err
	}
	if done {
		*res = res.add(g.leaf(s), en.mult)
		return next, false, nil
	}
	if len(ms) == 0 {
		*res = res.add(stuckLeaf, en.mult)
		return next, false, nil
	}
	for _, m := range ms {
		if g.memoize {
			tr := g.x.apply(s, m)
			fp := g.x.fingerprint(s)
			g.x.undo(s, m, tr)
			if i, ok := nextIdx[fp]; ok {
				next[i].mult += en.mult
				continue
			}
			nextIdx[fp] = len(next)
		}
		path := append(en.path[:len(en.path):len(en.path)], m)
		next = append(next, frontierEntry{path: path, mult: en.mult})
	}
	return next, false, nil
}
