// Package litmus exhaustively explores the outcomes of small annotated
// multi-threaded programs under the PMC memory model (internal/core). It
// enumerates every thread interleaving and, at each read, every value the
// model permits (Definition 12), collecting the set of observable final
// outcomes.
//
// The explorer enforces what the model assumes but does not itself provide:
//   - mutual exclusion: an acquire is enabled only while no other thread
//     holds the location's lock;
//   - slow-memory read monotonicity: successive reads of one location by
//     one thread never step backwards through the write order they have
//     already observed (the second clause of Definition 12, applied in
//     issue order, which is Slow Consistency's guarantee);
//   - progress for polls: an await is enabled once the awaited value is
//     readable, modelling "the flag is eventually observed" without
//     enumerating unboundedly many failed poll iterations.
//
// This is the tool that demonstrates Fig. 1 (the unsynchronized program has
// a stale outcome), Fig. 5/6 (the annotated program has exactly one
// outcome), and the SC-simulation claim for data-race-free programs.
package litmus

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pmc/internal/core"
)

// ErrBudget is wrapped by Run when the state budget is exhausted with work
// remaining; match it with errors.Is (the fuzzer skips such programs).
var ErrBudget = errors.New("state budget exhausted")

// InstrKind enumerates litmus instructions. They correspond to the PMC
// annotations of Section V-A: reads/writes plus entry_x/exit_x (acquire/
// release), fence, and an await modelling a poll loop. Flush is accepted
// for program fidelity but is a no-op at model level (it is a liveness
// hint, not an ordering, Section IV-D).
type InstrKind uint8

const (
	// IRead reads Loc into register Reg.
	IRead InstrKind = iota
	// IWrite writes the constant Val to Loc.
	IWrite
	// IAcquire is entry_x(Loc).
	IAcquire
	// IRelease is exit_x(Loc).
	IRelease
	// IFence is fence().
	IFence
	// IFlush is flush(Loc): no model ordering, explorer no-op.
	IFlush
	// IAwaitEq blocks until a read of Loc can return Val, then performs
	// that read into Reg (if Reg is non-empty).
	IAwaitEq
	// IReadBlock is a ranged read of Loc's whole width (annotation API
	// v2): word k lands in register WordReg(Reg, k). Lowered to per-word
	// reads before exploration; executed as one Ctx.ReadBlock by the
	// conformance harness.
	IReadBlock
	// IWriteBlock is a ranged write of Loc's whole width: word k receives
	// Val+k (distinct per-word values, so partial or torn transfers are
	// observable).
	IWriteBlock
)

// Instr is one litmus instruction.
type Instr struct {
	Kind InstrKind
	Loc  string
	Val  core.Value
	Reg  string
}

// Convenience constructors.

// Read returns an instruction reading loc into reg.
func Read(loc, reg string) Instr { return Instr{Kind: IRead, Loc: loc, Reg: reg} }

// Write returns an instruction writing val to loc.
func Write(loc string, val core.Value) Instr { return Instr{Kind: IWrite, Loc: loc, Val: val} }

// Acquire returns entry_x(loc).
func Acquire(loc string) Instr { return Instr{Kind: IAcquire, Loc: loc} }

// Release returns exit_x(loc).
func Release(loc string) Instr { return Instr{Kind: IRelease, Loc: loc} }

// Fence returns fence().
func Fence() Instr { return Instr{Kind: IFence} }

// FenceOn returns a location-scoped fence (the Section IV-D extension):
// it orders only operations on loc.
func FenceOn(loc string) Instr { return Instr{Kind: IFence, Loc: loc} }

// Flush returns flush(loc).
func Flush(loc string) Instr { return Instr{Kind: IFlush, Loc: loc} }

// AwaitEq returns a poll loop "while(loc != val);" that records the
// successful read in reg (reg may be empty).
func AwaitEq(loc string, val core.Value, reg string) Instr {
	return Instr{Kind: IAwaitEq, Loc: loc, Val: val, Reg: reg}
}

// ReadBlock returns a ranged read of loc's whole width; word k is
// observed in WordReg(reg, k) (reg may be empty for an unobserved read).
func ReadBlock(loc, reg string) Instr { return Instr{Kind: IReadBlock, Loc: loc, Reg: reg} }

// WriteBlock returns a ranged write of loc's whole width; word k receives
// val+k.
func WriteBlock(loc string, val core.Value) Instr {
	return Instr{Kind: IWriteBlock, Loc: loc, Val: val}
}

// Thread is a sequence of instructions executed by one process.
type Thread []Instr

// Program is a complete litmus test.
type Program struct {
	Name    string
	Locs    []string
	Threads []Thread
	// Widths gives the word width of multi-word locations (absent or
	// ≤ 1 means one word). Wide locations model multi-word shared
	// objects: block instructions cover the whole width, scope
	// annotations protect every word, and the explorer lowers both to
	// per-word model operations (LowerWide).
	Widths map[string]int
	// Placement routes locations to named runtime backends when the
	// program executes under conform's mixed mode (absent = the run's
	// default backend). The model is placement-blind — every conforming
	// backend implements the same memory model — so exploration ignores
	// it; only execution and the canonical fingerprint consume it.
	Placement map[string]string
}

// PlacedOn returns the backend name loc is placed on ("" = default).
func (p Program) PlacedOn(loc string) string { return p.Placement[loc] }

// WidthOf returns loc's width in words (at least 1).
func (p Program) WidthOf(loc string) int {
	if w := p.Widths[loc]; w > 1 {
		return w
	}
	return 1
}

// WordLoc names word k of a wide location at model level: word 0 keeps
// the location's own name, word k is "loc@k".
func WordLoc(loc string, k int) string {
	if k == 0 {
		return loc
	}
	return fmt.Sprintf("%s@%d", loc, k)
}

// WordReg names the register observing word k of a block read: word 0
// keeps the base register name, word k is "reg@k".
func WordReg(reg string, k int) string {
	if k == 0 || reg == "" {
		return reg
	}
	return fmt.Sprintf("%s@%d", reg, k)
}

// HasWide reports whether p uses multi-word locations or block
// instructions (i.e. whether LowerWide would rewrite it).
func (p Program) HasWide() bool {
	for _, w := range p.Widths {
		if w > 1 {
			return true
		}
	}
	for _, th := range p.Threads {
		for _, in := range th {
			if in.Kind == IReadBlock || in.Kind == IWriteBlock {
				return true
			}
		}
	}
	return false
}

// LowerWide rewrites a program with wide locations and block instructions
// into the pure word-granular form the exploration engine and the formal
// model speak:
//
//   - a wide location X of width w becomes word locations X, X@1 … X@w-1;
//   - entry_x/exit_x (acquire/release) of X cover every word — the
//     runtime's one object lock protects the whole object, which the
//     model expresses as one acquire/release per word location;
//   - location-scoped fences and flushes of X expand per word;
//   - WriteBlock(X, v) becomes per-word writes of v+k, ReadBlock(X, r)
//     per-word reads into r, r@1, …;
//   - word-granular reads/writes/awaits of X touch word 0 (the location's
//     own name).
//
// Bare (unscoped) accesses stay bare: the runtime's entry_ro wrapper takes
// the object lock for multi-word objects, so the execution is strictly
// more ordered than this model program — outcomes remain a subset of the
// model's, which is the sound direction for conformance checking.
//
// Programs without wide features are returned unchanged (same backing
// arrays), so existing explorations are bit-for-bit unaffected.
func LowerWide(p Program) Program {
	if !p.HasWide() {
		return p
	}
	out := Program{Name: p.Name, Threads: make([]Thread, len(p.Threads)), Placement: p.Placement}
	for _, loc := range p.Locs {
		for k := 0; k < p.WidthOf(loc); k++ {
			out.Locs = append(out.Locs, WordLoc(loc, k))
		}
	}
	for ti, th := range p.Threads {
		var eff Thread
		for _, in := range th {
			w := p.WidthOf(in.Loc)
			switch in.Kind {
			case IAcquire:
				for k := 0; k < w; k++ {
					eff = append(eff, Acquire(WordLoc(in.Loc, k)))
				}
			case IRelease:
				for k := 0; k < w; k++ {
					eff = append(eff, Release(WordLoc(in.Loc, k)))
				}
			case IFence:
				if in.Loc == "" {
					eff = append(eff, in)
					break
				}
				for k := 0; k < w; k++ {
					eff = append(eff, FenceOn(WordLoc(in.Loc, k)))
				}
			case IFlush:
				for k := 0; k < w; k++ {
					eff = append(eff, Flush(WordLoc(in.Loc, k)))
				}
			case IReadBlock:
				for k := 0; k < w; k++ {
					eff = append(eff, Read(WordLoc(in.Loc, k), WordReg(in.Reg, k)))
				}
			case IWriteBlock:
				for k := 0; k < w; k++ {
					eff = append(eff, Write(WordLoc(in.Loc, k), in.Val+core.Value(k)))
				}
			default:
				// Word-granular reads, writes and awaits touch word 0,
				// whose model location keeps the object's name.
				eff = append(eff, in)
			}
		}
		out.Threads[ti] = eff
	}
	return out
}

// Result summarizes an exploration.
type Result struct {
	// Outcomes maps a canonical register assignment ("r1=42 r2=0") to
	// the number of distinct executions producing it. The count is the
	// number of complete interleaving/read-choice paths, identical for
	// every worker count and with or without Symmetry.
	Outcomes map[string]int
	// Stuck counts executions that reached a state with no enabled
	// instruction before all threads finished (deadlock/livelock).
	Stuck int
	// States is the number of explored states — a cost metric, not part
	// of the semantics. It counts distinct canonical states (orbits
	// under Symmetry), typically far fewer than the nodes of the
	// exploration tree, and is the same for every worker count.
	States int
}

// HasOutcome reports whether the canonical outcome string was observed.
func (r *Result) HasOutcome(s string) bool { return r.Outcomes[s] > 0 }

// OutcomeList returns the sorted outcome strings.
func (r *Result) OutcomeList() []string {
	var out []string
	for o := range r.Outcomes {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// String renders the result compactly.
func (r *Result) String() string {
	var b strings.Builder
	for _, o := range r.OutcomeList() {
		fmt.Fprintf(&b, "%s (%d executions)\n", o, r.Outcomes[o])
	}
	if r.Stuck > 0 {
		fmt.Fprintf(&b, "stuck: %d\n", r.Stuck)
	}
	return b.String()
}

// state is the explorer's position in the exploration tree. There is one
// mutable state per exploring goroutine: the engine branches by applying a
// move, exploring, and undoing the move (apply/undo below; the execution
// pops the op with core.Execution.Undo), so no step copies the execution
// or these slices. The layout is flat — one backing array per field — so
// fingerprinting walks it without chasing pointers.
type state struct {
	exec *core.Execution
	// labels[id] is op id's fixed instruction label (fingerprint.go),
	// pushed and popped with the op.
	labels []int
	// acc holds one multiset accumulator per fingerprint frame
	// (Explorer.frames), kept current by apply and undo.
	acc []fpAcc
	pcs []int
	// lockHolder[loc] = thread index holding it, or -1.
	lockHolder []int
	// lastRead[thread*numLocs+loc] = op ID of the write last read-from,
	// or -1.
	lastRead []int
	// regs is the register file, indexed by the Explorer's regOrder
	// position (regIdx); Set distinguishes "never written" from zero.
	regs []regVal
}

// regVal is one register slot.
type regVal struct {
	Val core.Value
	Set bool
}

// move is one enabled exploration step: thread t executes its next
// instruction. For reads and awaits, rf is the op ID of the write read
// from and val the value returned; otherwise rf is -1.
type move struct {
	t   int
	rf  int
	val core.Value
}

// trail is what apply overwrote and undo restores beyond the pc and lock
// holder (which undo recomputes): the read's lastRead slot and register.
type trail struct {
	lastRead int
	reg      regVal
}

// Explorer runs exhaustive exploration of a program.
//
// Converging interleavings are deduplicated: states reached by different
// interleavings that are isomorphic (same per-thread progress, lock
// holders, registers, read views and dependency graph modulo issue-order
// relabeling) share one subtree, with path-counted outcomes matching
// plain tree enumeration exactly. The zero-configuration path
// (NewExplorer / Explore) runs GOMAXPROCS walkers over that memo table;
// every worker count, with or without Symmetry, produces identical
// Outcomes, Stuck and outcome lists, bit-for-bit, run-to-run.
type Explorer struct {
	prog   Program
	locIdx map[string]core.Loc
	// regOrder is the program's registers sorted by name, fixed at Run
	// start; regIdx maps a register name to its regOrder slot. Register
	// state lives in a flat per-state file indexed by slot.
	regOrder []string
	regIdx   map[string]int
	// base[t] is the label of thread t's first instruction: NumLocs plus
	// the lengths of the threads before it (fingerprint.go).
	base []int
	// auts holds the program's non-identity automorphisms when Symmetry
	// is on (symmetry.go), found in prepare so that every root state —
	// including each parallel walker's — carries their accumulators.
	auts []*autPerm
	// frames[0] is the identity labeling and frames[i] the labeling of
	// auts[i-1]: one fingerprint accumulator per frame.
	frames [][]int
	// MaxStates aborts pathological explorations. An exploration that
	// completes using exactly MaxStates states succeeds; the budget
	// error is returned only when work remained beyond it.
	MaxStates int
	// Workers is the number of exploration goroutines. 0 means
	// GOMAXPROCS; 1 explores sequentially. Parallel walkers share the
	// memo table.
	Workers int
	// Symmetry additionally collapses states related by a program
	// automorphism — a thread/location permutation mapping the program
	// onto itself (symmetry.go) — so fully interchangeable threads cost
	// one orbit instead of t! states. Outcomes, Stuck and per-outcome
	// path counts are unchanged; only States shrinks. Programs without
	// non-trivial automorphisms run identically to plain memoization
	// (modulo the canonicalization probe cost).
	Symmetry bool
}

// DefaultMaxStates is the state budget NewExplorer sets.
const DefaultMaxStates = 2_000_000

// NewExplorer prepares an exploration of p with the default engine
// (DefaultMaxStates, GOMAXPROCS workers).
func NewExplorer(p Program) *Explorer {
	return &Explorer{prog: p, MaxStates: DefaultMaxStates}
}

// Explore runs the exhaustive search and returns the result.
func Explore(p Program) (*Result, error) {
	return NewExplorer(p).Run()
}

// validate rejects malformed programs before exploration: unknown
// locations, and releases of a lock the thread cannot hold. Lock holding
// is static per thread — an acquire by t makes t the holder until t's own
// release — so a release-without-hold is detectable from the thread's
// instruction sequence alone, independent of interleaving. The check is
// deliberately stricter than dynamic reachability: a program containing a
// non-holder release is rejected even if exploration would never step it
// (e.g. it sits behind an unsatisfiable await), which also keeps the
// error deterministic under parallel exploration.
func (x *Explorer) validate() error {
	for ti, th := range x.prog.Threads {
		held := make(map[string]int)
		for pc, in := range th {
			if in.Kind == IFence && in.Loc == "" {
				continue
			}
			if _, ok := x.locIdx[in.Loc]; !ok {
				return fmt.Errorf("litmus %s: unknown location %q", x.prog.Name, in.Loc)
			}
			switch in.Kind {
			case IAcquire:
				held[in.Loc]++
			case IRelease:
				if held[in.Loc] == 0 {
					return fmt.Errorf("litmus %s: thread %d instruction %d releases %s without holding it",
						x.prog.Name, ti, pc, in.Loc)
				}
				held[in.Loc]--
			}
		}
	}
	return nil
}

// prepare lowers the program, builds the location and register indexes,
// validates, and returns the root state.
func (x *Explorer) prepare() (*state, error) {
	// Wide locations and block instructions lower to per-word model
	// operations first; word-granular programs pass through untouched.
	x.prog = LowerWide(x.prog)
	x.locIdx = make(map[string]core.Loc, len(x.prog.Locs))
	for i, name := range x.prog.Locs {
		x.locIdx[name] = core.Loc(i) // AddLoc order, see newRoot
	}
	if err := x.validate(); err != nil {
		return nil, err
	}
	x.regOrder = x.regOrder[:0]
	x.regIdx = make(map[string]int)
	for _, th := range x.prog.Threads {
		for _, in := range th {
			if in.Reg != "" {
				if _, ok := x.regIdx[in.Reg]; !ok {
					x.regIdx[in.Reg] = -1 // slot assigned after the sort
					x.regOrder = append(x.regOrder, in.Reg)
				}
			}
		}
	}
	sort.Strings(x.regOrder)
	for i, name := range x.regOrder {
		x.regIdx[name] = i
	}
	numLabels := len(x.prog.Locs)
	x.base = x.base[:0]
	for _, th := range x.prog.Threads {
		x.base = append(x.base, numLabels)
		numLabels += len(th)
	}
	identity := make([]int, numLabels)
	for i := range identity {
		identity[i] = i
	}
	x.frames = [][]int{identity}
	x.auts = nil
	if x.Symmetry {
		x.auts = x.automorphisms()
		for _, a := range x.auts {
			x.frames = append(x.frames, a.label)
		}
	}
	return x.newRoot(), nil
}

// newRoot builds the initial state of the prepared program: every
// location initialized, no thread started. Each call returns an
// independent state with identical op IDs.
func (x *Explorer) newRoot() *state {
	exec := core.NewExecution()
	for _, name := range x.prog.Locs {
		exec.AddLoc(name)
	}
	s := &state{
		exec:       exec,
		labels:     make([]int, len(x.prog.Locs)),
		acc:        make([]fpAcc, len(x.frames)),
		pcs:        make([]int, len(x.prog.Threads)),
		lockHolder: make([]int, len(x.prog.Locs)),
		lastRead:   make([]int, len(x.prog.Threads)*len(x.prog.Locs)),
		regs:       make([]regVal, len(x.regOrder)),
	}
	for i := range s.lockHolder {
		s.lockHolder[i] = -1
	}
	for i := range s.lastRead {
		s.lastRead[i] = -1
	}
	for id := range s.labels {
		s.labels[id] = id // init op of location l is op l, labeled l
		x.account(s, id, false)
	}
	return s
}

// Run executes the exploration.
func (x *Explorer) Run() (*Result, error) {
	s, err := x.prepare()
	if err != nil {
		return nil, err
	}
	workers := x.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := newEngine(x)
	res, err := g.run(s, workers)
	if err != nil {
		return nil, err
	}
	if g.states.Load() > g.maxStates {
		return nil, fmt.Errorf("litmus %s: %w (budget %d, work remained)",
			x.prog.Name, ErrBudget, x.MaxStates)
	}
	return g.result(res), nil
}

// readCandidates returns the write op IDs a read of loc by thread t may
// return in state s, honoring Definition 12 and read monotonicity. The
// readable set is computed against the live execution (core.ReadableAt)
// without issuing a probe read.
func (x *Explorer) readCandidates(s *state, t int, loc core.Loc) []int {
	cands := s.exec.ReadableAt(core.ProcID(t), loc)
	last := s.lastRead[t*len(x.prog.Locs)+int(loc)]
	out := cands[:0] // filtered in place: cands is ours
	for _, b := range cands {
		// Monotonicity: never read a write that is strictly before
		// the one we already observed, in our own view.
		if last >= 0 && b != last {
			if s.exec.ReachableP(core.ProcID(t), b, last) {
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// moves appends to ms the enabled moves of thread t in s, in successor
// order (one per read candidate for reads and awaits), and returns the
// extended list; none are appended when t is blocked or finished.
// Malformed programs (a release by a non-holder) surface as an error;
// validate catches them statically before exploration, so this path is
// defense in depth.
func (x *Explorer) moves(ms []move, s *state, t int) ([]move, error) {
	th := x.prog.Threads[t]
	if s.pcs[t] >= len(th) {
		return ms, nil
	}
	in := th[s.pcs[t]]
	switch in.Kind {
	case IWrite, IFence, IFlush:
	case IAcquire:
		if s.lockHolder[x.locIdx[in.Loc]] != -1 {
			return ms, nil // blocked
		}
	case IRelease:
		if s.lockHolder[x.locIdx[in.Loc]] != t {
			return ms, fmt.Errorf("litmus %s: thread %d releases %s without holding it",
				x.prog.Name, t, in.Loc)
		}
	case IRead, IAwaitEq:
		for _, b := range x.readCandidates(s, t, x.locIdx[in.Loc]) {
			val := s.exec.Op(b).Val
			if s.exec.Op(b).IsInit {
				val = 0
			}
			if in.Kind == IAwaitEq && val != in.Val {
				continue
			}
			ms = append(ms, move{t: t, rf: b, val: val})
		}
		return ms, nil // none = blocked (await not yet satisfiable)
	default:
		return ms, fmt.Errorf("litmus %s: unknown instruction kind %d", x.prog.Name, in.Kind)
	}
	return append(ms, move{t: t, rf: -1}), nil
}

// apply performs move m on s in place and returns what undo needs to
// reverse it.
func (x *Explorer) apply(s *state, m move) trail {
	pc := s.pcs[m.t]
	in := x.prog.Threads[m.t][pc]
	p := core.ProcID(m.t)
	var tr trail
	switch in.Kind {
	case IWrite:
		s.exec.Write(p, x.locIdx[in.Loc], in.Val)
	case IFence:
		if in.Loc != "" {
			s.exec.FenceLoc(p, x.locIdx[in.Loc])
		} else {
			s.exec.Fence(p)
		}
	case IAcquire:
		loc := x.locIdx[in.Loc]
		s.exec.Acquire(p, loc)
		s.lockHolder[loc] = m.t
	case IRelease:
		loc := x.locIdx[in.Loc]
		s.exec.Release(p, loc)
		s.lockHolder[loc] = -1
	case IRead, IAwaitEq:
		loc := x.locIdx[in.Loc]
		s.exec.Read(p, loc, m.val)
		slot := m.t*len(x.prog.Locs) + int(loc)
		tr.lastRead, s.lastRead[slot] = s.lastRead[slot], m.rf
		if in.Reg != "" {
			r := x.regIdx[in.Reg]
			tr.reg, s.regs[r] = s.regs[r], regVal{Val: m.val, Set: true}
		}
	}
	if in.Kind != IFlush {
		s.labels = append(s.labels, x.base[m.t]+pc)
		x.account(s, len(s.labels)-1, false)
	}
	s.pcs[m.t]++
	return tr
}

// undo reverses apply(s, m), which must be the latest move applied to s.
func (x *Explorer) undo(s *state, m move, tr trail) {
	s.pcs[m.t]--
	in := x.prog.Threads[m.t][s.pcs[m.t]]
	switch in.Kind {
	case IFlush:
		return // issued no op
	case IAcquire:
		s.lockHolder[x.locIdx[in.Loc]] = -1
	case IRelease:
		s.lockHolder[x.locIdx[in.Loc]] = m.t
	case IRead, IAwaitEq:
		loc := x.locIdx[in.Loc]
		s.lastRead[m.t*len(x.prog.Locs)+int(loc)] = tr.lastRead
		if in.Reg != "" {
			s.regs[x.regIdx[in.Reg]] = tr.reg
		}
	}
	id := len(s.labels) - 1
	x.account(s, id, true)
	s.labels = s.labels[:id]
	s.exec.Undo()
}

// canonical renders a register assignment deterministically. regOrder is
// sorted by name, so walking the register file in slot order yields the
// same "r1=42 r2=0" form the map-based renderer produced.
func (x *Explorer) canonical(regs []regVal) string {
	return string(x.appendCanonical(nil, regs))
}

// appendCanonical appends canonical(regs) to dst.
func (x *Explorer) appendCanonical(dst []byte, regs []regVal) []byte {
	n := len(dst)
	for i, r := range regs {
		if !r.Set {
			continue
		}
		if len(dst) > n {
			dst = append(dst, ' ')
		}
		dst = append(dst, x.regOrder[i]...)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, uint64(r.Val), 10)
	}
	if len(dst) == n {
		return append(dst, noObservations...)
	}
	return dst
}

// noObservations is the canonical outcome of a program with no observed
// registers.
const noObservations = "(no observations)"
