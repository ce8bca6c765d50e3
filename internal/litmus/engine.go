package litmus

import (
	"sync"
	"sync/atomic"
)

// This file is the exploration engine behind Explorer.Run: a memoized
// counting DFS. States are keyed by their canonical fingerprint
// (fingerprint.go) in one memo map behind a mutex; the subtree below a
// state is explored once and its outcome counts reused for every
// converging interleaving. Because the counts are of completions *from*
// the state, summing them once per incoming path reproduces the counts of
// plain tree enumeration exactly (the test oracle in oracle_test.go).
//
// Parallel exploration (Workers=n>1) is n walkers sharing that memo
// table. Walker 0 explores the root as the sequential walk does. Walker
// w≥1 walks the root's successors on a root of its own without claiming
// the root, and at every state starts at successor w mod their number,
// so the walkers fan out over different subtrees. A walker that reaches
// an entry another walker is still computing waits on it; each step
// advances one pc, so every wait points at a deeper state and none can
// cycle. Summing counts is order-independent, so the result does not
// depend on which walker computed what: the helpers' own results are
// dropped, and their work reaches walker 0 through the table.
//
// Outcome counts are interned: the engine numbers each outcome string on
// first sight, and a subtree's result is a sorted slice of (id, count)
// pairs, immutable once built. A completed state returns its outcome's
// shared one-path result, and a state with several successors sums them
// into a stack buffer and allocates one exact-size slice. Run turns the
// root's counts back into names, so no output depends on an id.
//
// Every walk explores in place: one mutable state per walker, branched
// by applying a move, exploring, and undoing the move (litmus.go), so no
// state or execution is ever copied.
//
// Determinism of Result.States: compute is the only place a state is
// counted, once per memo entry, so States is the number of distinct
// canonical states (orbits under symmetry) for any worker count.

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

// add merges o into the accumulator acc and returns it. Both are sorted
// by id, so one forward pass places every entry.
func (acc subResult) add(o subResult) subResult {
	i := 0
	for _, c := range o {
		for i < len(acc) && acc[i].id < c.id {
			i++
		}
		if i < len(acc) && acc[i].id == c.id {
			acc[i].n += c.n
			continue
		}
		acc = append(acc, outcomeCount{})
		copy(acc[i+1:], acc[i:])
		acc[i] = c
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
	maxStates int64
	states    atomic.Int64
	// halt fails every later claim, so every walker unwinds: it is set
	// when a claim finds the budget spent with work remaining (states >
	// maxStates) and when walker 0 returns.
	halt atomic.Bool

	// mu guards the memo table and the outcome intern table, which every
	// walker shares.
	mu    sync.Mutex
	cache map[fingerprint]*cacheEntry // fingerprint/canonical fingerprint
	// ids interns outcome strings in discovery order: names[id] is the
	// outcome and leaves[id] its shared one-path result. Under parallel
	// exploration discovery order depends on scheduling, so no output may
	// depend on an id; Run reports outcomes by name.
	ids    map[string]int32
	names  []string
	leaves []subResult
}

// newEngine returns the exploration context for one Run of the prepared
// explorer x. When x has automorphisms (Explorer.auts, empty = plain
// memoization) the memo table is keyed by the orbit-canonical fingerprint
// and stores results in the canonical register frame (see symmetry.go).
func newEngine(x *Explorer) *engine {
	return &engine{
		x:         x,
		maxStates: int64(x.MaxStates),
		cache:     make(map[fingerprint]*cacheEntry),
		ids:       make(map[string]int32),
	}
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

// explore returns the subResult for s as walker w, consulting the memo
// table. Results from the table are shared and must not be mutated.
func (g *engine) explore(s *state, w int) (subResult, error) {
	if len(g.x.auts) > 0 {
		return g.exploreSym(s, w)
	}
	e, hit := g.lookup(g.x.fingerprint(s))
	if hit {
		e.done.Wait()
		return e.res, e.err
	}
	e.res, e.err = g.compute(s, w)
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
func (g *engine) exploreSym(s *state, w int) (subResult, error) {
	fp, perm := g.canonicalFP(s)
	e, hit := g.lookup(fp)
	if hit {
		return g.translated(e, perm)
	}
	res, err := g.compute(s, w)
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

// claimState takes one slot of the state budget. It fails once the
// exploration has halted, and halts it when work remains past the budget.
// compute is its only caller, so exactly one claim happens per counted
// state.
func (g *engine) claimState() bool {
	if g.halt.Load() {
		return false
	}
	if g.states.Add(1) > g.maxStates {
		g.halt.Store(true)
		return false
	}
	return true
}

// run explores root with workers walkers and returns walker 0's result
// once every walker has stopped. Helpers walk roots of their own and drop
// their results.
func (g *engine) run(root *state, workers int) (subResult, error) {
	if workers == 1 {
		return g.explore(root, 0)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.walk(g.x.newRoot(), w)
		}()
	}
	res, err := g.explore(root, 0)
	g.halt.Store(true)
	wg.Wait()
	return res, err
}

// compute claims one slot of the state budget for s and walks it.
func (g *engine) compute(s *state, w int) (subResult, error) {
	if !g.claimState() {
		return nil, nil
	}
	return g.walk(s, w)
}

// walk returns the shared leaf of a completed state, the stuck leaf of a
// state without enabled moves, and otherwise explores each successor as
// walker w, starting at successor w mod their number: it applies the
// move to s, recurses and undoes the move, so s is back to its entry
// value when walk returns, error or not. All moves are computed on s
// before any is applied. The children's counts are summed in a stack
// buffer and copied out once; a state with one successor shares its
// child's result.
func (g *engine) walk(s *state, w int) (subResult, error) {
	var buf [8]move // most states' moves fit, so ms stays on the stack
	ms, done := buf[:0], true
	for t, th := range g.x.prog.Threads {
		if s.pcs[t] < len(th) {
			done = false
		}
		var err error
		if ms, err = g.x.moves(ms, s, t); err != nil {
			return nil, err
		}
	}
	switch {
	case done:
		return g.leaf(s), nil
	case len(ms) == 0:
		return stuckLeaf, nil
	case len(ms) == 1:
		tr := g.x.apply(s, ms[0])
		sub, err := g.explore(s, w)
		g.x.undo(s, ms[0], tr)
		return sub, err
	}
	var sum [16]outcomeCount
	acc := subResult(sum[:0])
	for i := range ms {
		m := ms[(w+i)%len(ms)]
		tr := g.x.apply(s, m)
		sub, err := g.explore(s, w)
		g.x.undo(s, m, tr)
		if err != nil {
			return nil, err
		}
		acc = acc.add(sub)
	}
	res := make(subResult, len(acc))
	copy(res, acc)
	return res, nil
}
