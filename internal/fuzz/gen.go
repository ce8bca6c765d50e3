// Package fuzz is a seeded litmus-program fuzzer for the PMC stack: a
// generator that manufactures random annotated programs under the
// runtime's annotation discipline, a differential loop that explores each
// program with the formal model and executes it on every runtime backend
// through the conformance harness, and a delta-debugging shrinker that
// minimizes any program whose observed outcomes escape the model's
// allowed set.
//
// The paper claims a hardware mapping of the PMC primitives "can be
// designed and verified with relative ease" (Section I); hand-written
// litmus catalogs only sample that claim. The fuzzer makes the scenario
// space systematic: thousands of generated programs, every one
// reproducible from a printed seed, checked against the model on all
// backends — and, with Config.Faults, proven able to catch and shrink
// real protocol bugs.
package fuzz

import (
	"fmt"
	"math/rand"

	"pmc/internal/core"
	"pmc/internal/litmus"
)

// Mode selects the annotation discipline of generated programs.
type Mode int

const (
	// ModeDRF generates fully annotated, data-race-free programs: every
	// data access happens inside an entry/exit scope, cross-thread
	// ordering flows through single-writer flags and awaits, and fences
	// order cross-location sections. The model admits few outcomes, so
	// these programs put maximal pressure on the backends.
	ModeDRF Mode = iota
	// ModeRacy additionally emits bare (unannotated) reads and writes,
	// like the paper's Fig. 1: the model's envelope is wide and the
	// implementation must stay inside it.
	ModeRacy
	// ModeMixed draws each action from either discipline.
	ModeMixed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDRF:
		return "drf"
	case ModeRacy:
		return "racy"
	case ModeMixed:
		return "mixed"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts "drf", "racy" or "mixed".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "drf":
		return ModeDRF, nil
	case "racy":
		return ModeRacy, nil
	case "mixed":
		return ModeMixed, nil
	}
	return 0, fmt.Errorf("fuzz: unknown mode %q (drf, racy, mixed)", s)
}

// GenConfig bounds the generator. The zero value selects the defaults.
type GenConfig struct {
	// MaxThreads caps the thread count (min 2; default 3).
	MaxThreads int
	// MaxLocs caps the number of data locations (default 2); flag
	// locations used by publish/await pairs come on top.
	MaxLocs int
	// MaxInstrs caps each thread's instruction count (default 8).
	MaxInstrs int
	// Mode selects the annotation discipline (default ModeMixed).
	Mode Mode
	// MaxBlockWords caps the width of multi-word data locations; wide
	// locations are exercised through ranged block reads/writes
	// (annotation API v2) alongside word accesses. 0 selects the
	// default of 4; 1 generates word-only programs.
	MaxBlockWords int
	// BackendPool, when non-empty, makes generated programs mixed: every
	// location independently draws a backend placement from the pool or
	// stays unplaced (the run's default backend). Placement is part of
	// the canonical fingerprint, so the same instruction stream over
	// different placements counts as distinct programs.
	BackendPool []string
}

func (g GenConfig) withDefaults() GenConfig {
	if g.MaxThreads < 2 {
		g.MaxThreads = 3
	}
	if g.MaxLocs < 1 {
		g.MaxLocs = 2
	}
	if g.MaxInstrs < 4 {
		g.MaxInstrs = 8
	}
	if g.MaxBlockWords == 0 {
		g.MaxBlockWords = 4
	}
	return g
}

// splitmix64 decorrelates consecutive seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generation state for one program.
type genState struct {
	rng  *rand.Rand
	cfg  GenConfig
	racy bool // discipline of the action being generated

	nThreads int
	dataLocs []string
	// widths maps wide data locations to their word width (absent = 1);
	// block operations are only emitted on wide locations.
	widths   map[string]int
	nextVal  map[string]core.Value // per-location distinct write values
	nextReg  int
	nextFlag int

	// flags published so far: threads with a larger index may await them.
	flags []genFlag
}

type genFlag struct {
	loc    string
	writer int
	val    core.Value
}

func (g *genState) reg() string {
	g.nextReg++
	return fmt.Sprintf("r%d", g.nextReg-1)
}

func (g *genState) val(loc string) core.Value {
	g.nextVal[loc]++
	return g.nextVal[loc]
}

func (g *genState) dataLoc() string {
	return g.dataLocs[g.rng.Intn(len(g.dataLocs))]
}

// Generate builds a random litmus program from the seed. The same seed and
// config always produce the same program, and the program is safe to run
// on the simulator: scopes are never nested (so locks cannot deadlock),
// every await polls a flag that is written exactly once — by a
// lower-indexed thread, so await chains form a DAG — and flag publications
// always reach global visibility (bare writes are flushed by the runtime
// discipline; scoped publications carry an explicit flush).
func Generate(seed int64, cfg GenConfig) litmus.Program {
	cfg = cfg.withDefaults()
	g := &genState{
		rng:     rand.New(rand.NewSource(int64(splitmix64(uint64(seed))))),
		cfg:     cfg,
		widths:  make(map[string]int),
		nextVal: make(map[string]core.Value),
	}
	g.nThreads = 2 + g.rng.Intn(cfg.MaxThreads-1)
	nData := 1 + g.rng.Intn(cfg.MaxLocs)
	for i := 0; i < nData; i++ {
		loc := fmt.Sprintf("X%d", i)
		g.dataLocs = append(g.dataLocs, loc)
		// About a third of data locations are multi-word, exercising the
		// ranged path (block ops, whole-object scope locks) end to end.
		if cfg.MaxBlockWords >= 2 && g.rng.Intn(3) == 0 {
			g.widths[loc] = 2 + g.rng.Intn(cfg.MaxBlockWords-1)
		}
	}

	threads := make([]litmus.Thread, g.nThreads)
	for ti := 0; ti < g.nThreads; ti++ {
		threads[ti] = g.thread(ti)
	}

	p := litmus.Program{
		Name:    fmt.Sprintf("fuzz-%d", seed),
		Threads: threads,
	}
	// Guarantee at least one observation so the outcome space is not
	// vacuous.
	if !hasObservation(p) {
		loc := g.dataLocs[0]
		ti := g.nThreads - 1
		p.Threads[ti] = append(p.Threads[ti],
			litmus.Acquire(loc), litmus.Read(loc, g.reg()), litmus.Release(loc))
	}
	p.Locs = usedLocs(p)
	for _, loc := range p.Locs {
		if w, ok := g.widths[loc]; ok {
			if p.Widths == nil {
				p.Widths = make(map[string]int)
			}
			p.Widths[loc] = w
		}
	}
	// Per-location backend placement, drawn after the instruction stream
	// so placement never perturbs it: the same seed with and without a
	// pool generates the same threads. Index len(pool) means unplaced
	// (the run's default backend).
	if pool := cfg.BackendPool; len(pool) > 0 {
		for _, loc := range p.Locs {
			if i := g.rng.Intn(len(pool) + 1); i < len(pool) {
				if p.Placement == nil {
					p.Placement = make(map[string]string)
				}
				p.Placement[loc] = pool[i]
			}
		}
	}
	return p
}

func hasObservation(p litmus.Program) bool {
	for _, th := range p.Threads {
		for _, in := range th {
			if in.Reg != "" {
				return true
			}
		}
	}
	return false
}

// usedLocs returns the locations referenced by p's instructions, in order
// of first appearance.
func usedLocs(p litmus.Program) []string {
	var locs []string
	seen := map[string]bool{}
	for _, th := range p.Threads {
		for _, in := range th {
			if in.Loc != "" && !seen[in.Loc] {
				seen[in.Loc] = true
				locs = append(locs, in.Loc)
			}
		}
	}
	return locs
}

// thread generates one thread's instruction sequence within the budget.
func (g *genState) thread(ti int) litmus.Thread {
	var th litmus.Thread
	awaits := 0
	// The attempt bound keeps generation total even if every remaining
	// pick is unplaceable (e.g. awaits with no awaitable flag).
	for attempts := 0; len(th) < g.cfg.MaxInstrs && attempts < 4*g.cfg.MaxInstrs; attempts++ {
		// Snapshot the flag pool: a discarded action must not leave a
		// registered-but-never-written flag behind for later threads to
		// await (that await could never be satisfied).
		nFlags, nextFlag := len(g.flags), g.nextFlag
		switch g.cfg.Mode {
		case ModeDRF:
			g.racy = false
		case ModeRacy:
			g.racy = true
		case ModeMixed:
			g.racy = g.rng.Intn(2) == 0
		}
		var act litmus.Thread
		switch pick := g.rng.Intn(10); {
		case pick < 4:
			act = g.criticalSection(ti)
		case pick < 6:
			act = g.publish(ti)
		case pick < 8 && awaits < 2:
			act = g.await(ti)
			if act != nil {
				awaits++
			}
		case pick < 9 && g.racy:
			// Bare top-level access: a write or a read, Fig. 1 style —
			// ranged on wide locations half the time.
			loc := g.dataLoc()
			switch wide := g.widths[loc] > 1 && g.rng.Intn(2) == 0; {
			case wide && g.rng.Intn(2) == 0:
				act = litmus.Thread{litmus.WriteBlock(loc, g.val(loc))}
			case wide:
				act = litmus.Thread{litmus.ReadBlock(loc, g.reg())}
			case g.rng.Intn(2) == 0:
				act = litmus.Thread{litmus.Write(loc, g.val(loc))}
			default:
				act = litmus.Thread{litmus.Read(loc, g.reg())}
			}
		default:
			// A fence between sections; occasionally location-scoped
			// (the Section IV-D extension).
			if g.rng.Intn(4) == 0 {
				act = litmus.Thread{litmus.FenceOn(g.dataLoc())}
			} else {
				act = litmus.Thread{litmus.Fence()}
			}
		}
		if act == nil {
			// Unplaceable pick (no awaitable flag yet): try another
			// action rather than ending the thread early.
			continue
		}
		if len(th)+len(act) > g.cfg.MaxInstrs {
			g.flags = g.flags[:nFlags]
			g.nextFlag = nextFlag
			break
		}
		th = append(th, act...)
	}
	return th
}

// criticalSection emits entry_x(L); 1-3 accesses of L; [fence;] exit_x(L).
// Scopes are never nested and only touch their own location, which keeps
// lock order trivially acyclic. On wide locations the accesses mix word
// and block granularity, exercising the ranged path under the lock.
func (g *genState) criticalSection(ti int) litmus.Thread {
	loc := g.dataLoc()
	th := litmus.Thread{litmus.Acquire(loc)}
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		block := g.widths[loc] > 1 && g.rng.Intn(2) == 0
		switch {
		case block && g.rng.Intn(2) == 0:
			th = append(th, litmus.WriteBlock(loc, g.val(loc)))
		case block:
			th = append(th, litmus.ReadBlock(loc, g.reg()))
		case g.rng.Intn(2) == 0:
			th = append(th, litmus.Write(loc, g.val(loc)))
		default:
			th = append(th, litmus.Read(loc, g.reg()))
		}
	}
	if g.rng.Intn(3) == 0 {
		th = append(th, litmus.Flush(loc))
	}
	if g.rng.Intn(2) == 0 {
		// The Fig. 6 writer idiom: fence before exit so the section is
		// ordered against later sections on other locations.
		if g.rng.Intn(4) == 0 {
			th = append(th, litmus.FenceOn(loc))
		} else {
			th = append(th, litmus.Fence())
		}
	}
	return append(th, litmus.Release(loc))
}

// publish emits a write of a fresh single-writer flag, either bare (the
// runtime discipline wraps and flushes it) or as an explicit scoped
// publication with a flush (the Fig. 6 idiom). Threads with a larger
// index may then await it.
func (g *genState) publish(ti int) litmus.Thread {
	loc := fmt.Sprintf("f%d", g.nextFlag)
	g.nextFlag++
	fl := genFlag{loc: loc, writer: ti, val: 1}
	g.flags = append(g.flags, fl)
	if g.racy || g.rng.Intn(2) == 0 {
		return litmus.Thread{litmus.Write(loc, fl.val)}
	}
	return litmus.Thread{
		litmus.Acquire(loc),
		litmus.Write(loc, fl.val),
		litmus.Flush(loc),
		litmus.Release(loc),
	}
}

// await emits a poll on a flag published by a lower-indexed thread (the
// DAG rule that rules out await cycles), optionally followed by the
// reader-side fence of Fig. 6. Returns nil when no flag is awaitable.
func (g *genState) await(ti int) litmus.Thread {
	var avail []genFlag
	for _, fl := range g.flags {
		if fl.writer < ti {
			avail = append(avail, fl)
		}
	}
	if len(avail) == 0 {
		return nil
	}
	fl := avail[g.rng.Intn(len(avail))]
	reg := ""
	if g.rng.Intn(3) == 0 {
		reg = g.reg()
	}
	th := litmus.Thread{litmus.AwaitEq(fl.loc, fl.val, reg)}
	if !g.racy || g.rng.Intn(2) == 0 {
		th = append(th, litmus.Fence())
	}
	return th
}
