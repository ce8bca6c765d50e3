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
//     canonical fingerprint (fingerprint.go); the subtree below a state is
//     explored once and its outcome-count map reused for every converging
//     interleaving. Because the map counts completions *from* the state,
//     summing it once per incoming path reproduces tree counts exactly;
//   - worker-pool frontier mode (Workers>1): the root is expanded
//     breadth-first into a frontier of independent subtrees which a pool of
//     workers explores concurrently. Merging is pure addition of counts —
//     commutative and associative — so the result is bit-identical
//     run-to-run and identical to the sequential modes regardless of
//     scheduling. A shared memo table additionally dedupes states across
//     subtrees (two frontier subtrees can converge).
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

// subResult is the outcome of exploring one subtree: completions and stuck
// leaves reachable from its root, counted per path.
type subResult struct {
	outcomes map[string]int
	stuck    int
}

func newSubResult() *subResult {
	return &subResult{outcomes: make(map[string]int)}
}

// add merges o into r, scaling by mult (the number of distinct paths that
// led to o's root).
func (r *subResult) add(o *subResult, mult int) {
	for k, v := range o.outcomes {
		r.outcomes[k] += v * mult
	}
	r.stuck += o.stuck * mult
}

// emptySub is the shared result of an aborted subtree. Never mutated.
var emptySub = &subResult{}

// cacheEntry is one memo-table slot. The goroutine that wins the
// LoadOrStore computes res/err and closes done; others wait. The state
// graph is a DAG (each step advances one pc), so waits always point
// "downward" and cannot cycle.
type cacheEntry struct {
	done chan struct{}
	res  *subResult
	err  error
}

// engine holds the mutable exploration context for one Run.
type engine struct {
	x         *Explorer
	memoize   bool
	maxStates int64
	states    atomic.Int64
	budgetHit atomic.Bool
	cache     sync.Map // fingerprint/canonical fingerprint -> *cacheEntry
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
	g := &engine{x: x, memoize: x.Memoize, maxStates: int64(x.MaxStates)}
	if x.Symmetry {
		g.claimed = make(map[fingerprint]bool)
	}
	return g
}

// explore returns the subResult for s, consulting the memo table when
// enabled. Results from the table are shared and must not be mutated.
func (g *engine) explore(s *state) (*subResult, error) {
	if !g.memoize {
		return g.compute(s)
	}
	if len(g.x.auts) > 0 {
		return g.exploreSym(s)
	}
	fp := g.x.fingerprint(s)
	// Fast path: cache hits dominate once memoization kicks in, so probe
	// with a plain Load before allocating an entry for LoadOrStore.
	if prev, ok := g.cache.Load(fp); ok {
		pe := prev.(*cacheEntry)
		<-pe.done
		return pe.res, pe.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	if prev, loaded := g.cache.LoadOrStore(fp, e); loaded {
		pe := prev.(*cacheEntry)
		<-pe.done
		return pe.res, pe.err
	}
	e.res, e.err = g.compute(s)
	close(e.done)
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
// shared outcome map into its own frame. Each stored permutation is
// individually a program automorphism, which is all translation needs;
// the set need not be closed under composition.
func (g *engine) exploreSym(s *state) (*subResult, error) {
	fp, perm := g.canonicalFP(s)
	if prev, ok := g.cache.Load(fp); ok {
		return g.translated(prev.(*cacheEntry), perm)
	}
	e := &cacheEntry{done: make(chan struct{})}
	if prev, loaded := g.cache.LoadOrStore(fp, e); loaded {
		return g.translated(prev.(*cacheEntry), perm)
	}
	res, err := g.compute(s)
	if err != nil {
		e.err = err
	} else if perm != nil {
		e.res = g.x.translateSub(res, perm.regTo)
	} else {
		e.res = res
	}
	close(e.done)
	return res, err
}

// translated waits for a memo entry and maps its canonical-frame result
// back into the frame of the state that hit it.
func (g *engine) translated(pe *cacheEntry, perm *autPerm) (*subResult, error) {
	<-pe.done
	if pe.err != nil {
		return nil, pe.err
	}
	if perm == nil {
		return pe.res, nil
	}
	return g.x.translateSub(pe.res, perm.regFrom), nil
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

// expandState classifies one claimed state: a completed execution (done,
// with its canonical outcome), or its enabled moves appended to ms (none =
// stuck), all computed on s before any is applied. Both the recursive walk
// and the frontier expansion go through here so terminal-state and
// stepping semantics live in one place.
func (g *engine) expandState(ms []move, s *state) (outcome string, done bool, _ []move, err error) {
	allDone := true
	for t := range g.x.prog.Threads {
		if s.pcs[t] < len(g.x.prog.Threads[t]) {
			allDone = false
			break
		}
	}
	if allDone {
		return g.x.canonical(s.regs), true, ms, nil
	}
	for t := range g.x.prog.Threads {
		if ms, err = g.x.moves(ms, s, t); err != nil {
			return "", false, nil, err
		}
	}
	return "", false, ms, nil
}

// compute walks one state: claims a slot of the state budget, emits the
// outcome for complete states, and otherwise explores each successor by
// applying its move to s, recursing, and undoing the move — s is back to
// its entry value when compute returns, error or not.
func (g *engine) compute(s *state) (*subResult, error) {
	if !g.claimState() {
		return emptySub, nil
	}
	var buf [8]move // most states' moves fit, so ms stays on the stack
	outcome, done, ms, err := g.expandState(buf[:0], s)
	if err != nil {
		return nil, err
	}
	if done {
		return &subResult{outcomes: map[string]int{outcome: 1}}, nil
	}
	if len(ms) == 0 {
		return &subResult{stuck: 1}, nil
	}
	res := newSubResult()
	for _, m := range ms {
		tr := g.x.apply(s, m)
		sub, err := g.explore(s)
		g.x.undo(s, m, tr)
		if err != nil {
			return nil, err
		}
		res.add(sub, 1)
	}
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
func (g *engine) runParallel(root *state, workers int) (*subResult, error) {
	res := newSubResult()
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
			if next, stop, err = g.expandEntry(root, en, res, next, nextIdx); err != nil {
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
					res.add(sub, en.mult)
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
// expands it: a completed or stuck state folds into res, otherwise each
// successor's path is appended to next (deduplicated through nextIdx when
// memoizing). s is rewound on return; stop reports an exhausted budget.
func (g *engine) expandEntry(s *state, en frontierEntry, res *subResult, next []frontierEntry, nextIdx map[fingerprint]int) (_ []frontierEntry, stop bool, err error) {
	trs := g.replay(s, en.path)
	defer g.rewind(s, en.path, trs)
	if !g.claimFrontier(s) {
		return next, true, nil
	}
	outcome, done, ms, err := g.expandState(nil, s)
	if err != nil {
		return next, false, err
	}
	if done {
		res.outcomes[outcome] += en.mult
		return next, false, nil
	}
	if len(ms) == 0 {
		res.stuck += en.mult
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
