package rt

import (
	"pmc/internal/mem"
	"pmc/internal/sim"
)

// adaptiveBackend implements regional consistency over the routing layer:
// each object starts on the uncached nocc protocol, the backend observes
// its access pattern (scope entries, cross-tile handoffs, block traffic),
// and when the evidence favors another protocol the object migrates —
// only at an exit_x with no scope open anywhere, the boundary where the
// model guarantees a consistent cut:
//
//   - read-mostly objects (RO scopes dominate) → swcc, so readers hit the
//     cache;
//   - migratory objects (the lock ping-pongs between tiles) → dsm, so the
//     data rides the lock transfer;
//   - streaming objects (block traffic dominates scope count) → spm, so a
//     scope is one burst in, one burst out;
//   - small exclusively-written objects → nocc, where annotations cost
//     nothing beyond the lock.
//
// Migration mechanics keep the canonical story intact: leaving dsm copies
// the owner's replica back to SDRAM while the lock is still held; entering
// dsm seeds every tile's replica from SDRAM before the posted release can
// grant the lock onward (the release message has not even been delivered
// when the seeding runs, so no event can observe a half-migrated object).
type adaptiveBackend struct {
	rt    *Runtime
	nocc  Backend
	swcc  Backend
	dsm   *replicaBackend
	spm   Backend
	state map[int]*adaptState // object ID -> pattern state
}

// adaptState is the per-object access-pattern record.
type adaptState struct {
	proto Backend // protocol currently serving the object
	// open counts scopes that are open or mid-entry anywhere (a waiter
	// parked in entry_x counts): migration is only legal at zero.
	open       int
	xEntries   int
	roEntries  int
	handoffs   int // exclusive entries from a different tile than the last
	lastXTile  int
	blockWords int // words moved by ranged operations
	wordOps    int // word-granularity reads and writes
}

// adaptWarmup is the number of scope entries observed before the policy
// considers leaving the initial protocol.
const adaptWarmup = 3

// adaptStreamWords is the block-traffic threshold that substitutes for the
// entry-count warmup: an object that moves this many words through ranged
// operations has identified itself as streaming in as little as one scope,
// and waiting adaptWarmup entries would spend most of its lifetime on the
// wrong protocol (per-slot streams are often entered only a few times).
const adaptStreamWords = 32

// Adaptive returns the adaptive mixed-consistency backend.
func Adaptive() Backend {
	return &adaptiveBackend{state: make(map[int]*adaptState)}
}

func (b *adaptiveBackend) Name() string { return "adaptive" }

func (b *adaptiveBackend) Init(rt *Runtime) {
	b.rt = rt
	b.nocc = NoCC()
	b.swcc = SWCC()
	b.dsm = DSM().(*replicaBackend)
	b.spm = SPM()
	for _, inner := range []Backend{b.nocc, b.swcc, b.dsm, b.spm} {
		inner.Init(rt)
	}
}

func (b *adaptiveBackend) st(o *Object) *adaptState {
	s, ok := b.state[o.ID]
	if !ok {
		s = &adaptState{proto: b.nocc, lastXTile: -1}
		b.state[o.ID] = s
	}
	return s
}

// protocolFor resolves the protocol currently serving o (the
// protocolResolver capability: the recorder and ReadObjectWord see through
// the router).
func (b *adaptiveBackend) protocolFor(o *Object) Backend { return b.st(o).proto }

// pick returns the protocol the observed pattern favors.
func (b *adaptiveBackend) pick(st *adaptState, o *Object) Backend {
	total := st.xEntries + st.roEntries
	if total < adaptWarmup && st.blockWords < adaptStreamWords {
		return st.proto
	}
	switch {
	case st.blockWords >= 8*total && st.blockWords >= 32*st.wordOps:
		// Streaming: scopes move ≥8 words of block traffic each on
		// average and word-granularity accesses are rare — stage once
		// per scope instead of paying per word. The second clause keeps
		// halo-style objects out: a reader that wants one word must not
		// pay a whole-object staging copy because some other scope
		// streams the object in bulk.
		return b.spm
	case st.xEntries == 0:
		// Never written inside the run: readers can cache without any
		// invalidation traffic. (A mere read-majority is not enough —
		// an object rewritten between read bursts invalidates every
		// cached copy, and swcc would pay the miss plus the flush.)
		return b.swcc
	case 2*st.handoffs >= st.xEntries:
		// Migratory: ≥half the exclusive entries come from a new tile —
		// carry the data with the lock transfer.
		return b.dsm
	case o.Size <= 2*AtomicSize && st.roEntries == 0:
		// Contended small: exclusively-written word-or-two objects keep
		// the uncached path, whose annotations cost only the lock.
		return b.nocc
	case st.roEntries == 0:
		// Exclusive reuse of a sizable object that does not ping-pong:
		// the same tile keeps re-entering, so let it keep the data in
		// its cache between scopes.
		return b.swcc
	}
	return st.proto
}

func (b *adaptiveBackend) EntryX(c *Ctx, o *Object) {
	st := b.st(o)
	st.xEntries++
	b.flipAtEntry(o, st)
	// Count before acquiring: a parked waiter holds off migration, so the
	// protocol it entered under is the one it runs under.
	st.open++
	st.proto.EntryX(c, o)
	if st.lastXTile >= 0 && st.lastXTile != c.T.ID {
		st.handoffs++
	}
	st.lastXTile = c.T.ID
}

func (b *adaptiveBackend) ExitX(c *Ctx, o *Object) {
	st := b.st(o)
	st.open--
	cur := st.proto
	target := b.pick(st, o)
	if target == cur || st.open > 0 {
		cur.ExitX(c, o)
		return
	}
	b.migrate(c, o, st, cur, target, func() { cur.ExitX(c, o) })
}

// migrate moves o from cur to target at a scope exit the caller is about
// to perform while holding o's lock. The mechanics keep the canonical
// story intact at every instant another worker could look:
//
//   - the authoritative words are gathered through the departing
//     protocol's own modelled reads while the lock is still held: they
//     queue behind any posted stores still in flight at the SDRAM (nocc),
//     hit the dirty cache (swcc), read the staging copy (spm), or the
//     lock-carried replica (dsm) — the snapshot is exact and the time is
//     charged to the migrating worker;
//   - leaving dsm additionally copies the replica back to SDRAM with the
//     modelled DMA, making SDRAM canonical for the incoming protocol;
//   - the exit's release is posted and undelivered when it returns, so
//     the replica seeding and the protocol flip below run before any
//     grant, transfer, or rival access — atomic with the exit. The one
//     exception is a lock-free entry_ro of a word-sized object, which a
//     rival can start during the gather's waits: the open re-check below
//     aborts the flip and leaves the migration for a later exit.
func (b *adaptiveBackend) migrate(c *Ctx, o *Object, st *adaptState, cur, target Backend, exit func()) {
	var snapshot []uint32
	if target == Backend(b.dsm) {
		snapshot = make([]uint32, o.WordCount())
		for i := range snapshot {
			snapshot[i] = cur.Read32(c, o, 4*i)
		}
	}
	if cur == Backend(b.dsm) {
		l := b.dsm.level
		c.T.CopyFromLevel(c.P, l, b.dsm.replicaAddr(c.T.Unit(l), o), o.Addr, o.WordCount()*4)
	}
	exit()
	if st.open > 0 {
		// A rival entered a lock-free scope while the gather waited and
		// is running under cur: flipping now would change its protocol
		// mid-scope.
		return
	}
	if target == Backend(b.dsm) {
		b.dsm.initReplicas(b.rt, o, wordBytes(snapshot))
		b.dsm.lastWriter[o.ID] = c.T.Unit(b.dsm.level)
	}
	st.proto = target
	if target == Backend(b.dsm) {
		// Charge the seeding broadcast to the migrating worker (after
		// the flip: the charge waits, and a rival entering during the
		// wait must already see the new protocol).
		c.T.Exec(c.P, o.WordCount())
	}
}

func (b *adaptiveBackend) EntryRO(c *Ctx, o *Object) {
	st := b.st(o)
	st.roEntries++
	b.flipAtEntry(o, st)
	st.open++
	st.proto.EntryRO(c, o)
}

// flipAtEntry migrates a quiescent object at a scope entry, before the
// entry runs. Restricted to flips that move no data: away from nocc (whose
// canonical copy is always SDRAM, even with posted stores in flight — the
// new protocol's modelled reads queue behind them) and onto swcc or spm
// (which fill from SDRAM on demand). The flip is a host-order write between
// simulation events with open == 0, so no scope anywhere straddles it.
//
// This is the only migration point for objects whose readers always
// overlap: their exits see a parked waiter (open > 0) every time, so the
// exit-side check never fires, but the gap before a fresh entry finds the
// object quiescent.
func (b *adaptiveBackend) flipAtEntry(o *Object, st *adaptState) {
	if st.proto != b.nocc {
		return
	}
	target := b.pick(st, o)
	if st.open != 0 {
		// Not quiescent: only the read-side nocc→swcc flip is safe (see
		// readSideFlip) — the parked rivals' scopes stay well-formed.
		b.readSideFlip(st, Backend(b.nocc), target)
		return
	}
	if target != b.swcc && target != b.spm {
		return
	}
	st.proto = target
}

func (b *adaptiveBackend) ExitRO(c *Ctx, o *Object) {
	st := b.st(o)
	st.open--
	cur := st.proto
	target := b.pick(st, o)
	if target == cur {
		cur.ExitRO(c, o)
		return
	}
	// Migration at an RO exit needs the same mutual exclusion the X exit
	// has, which the inner protocols only take for multi-word objects
	// (c.scopes tracks it). Read-only data makes the gather trivially
	// consistent — nothing changed since the last exclusive exit.
	if st.open > 0 || !c.scopes[o].locked {
		cur.ExitRO(c, o)
		b.readSideFlip(st, cur, target)
		return
	}
	b.migrate(c, o, st, cur, target, func() { cur.ExitRO(c, o) })
}

// readSideFlip migrates a never-written object from nocc to swcc even
// while rival readers are parked — the case the quiescence-gated paths can
// never reach, because a popular read-only object under nocc serializes
// its readers on the lock and open never returns to zero.
//
// The flip is safe mid-contention because the two protocols' read-only
// scopes are interchangeable: both take the same object lock for
// multi-word objects and set the same scope flag, both exits release it
// the same way, and the data cannot be stale in any cache — the object has
// never been written inside the run and nocc never caches shared data. A
// waiter that entered under nocc simply wakes holding the lock and reads
// (correctly) through the cache. When the pattern actually wants spm, swcc
// still serves as the read-side stepping stone: spm's exit needs staging
// state its entry creates, so it can only be reached through a quiescent
// cut, and if one ever appears the normal paths take it from here.
func (b *adaptiveBackend) readSideFlip(st *adaptState, cur, target Backend) {
	if cur != Backend(b.nocc) || st.xEntries > 0 {
		return
	}
	if target != b.swcc && target != b.spm {
		return
	}
	st.proto = b.swcc
}

func (b *adaptiveBackend) Fence(c *Ctx) {
	// Every inner protocol's fence is a compiler barrier on the in-order
	// platform.
}

func (b *adaptiveBackend) Flush(c *Ctx, o *Object) { b.st(o).proto.Flush(c, o) }

func (b *adaptiveBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	st := b.st(o)
	st.wordOps++
	return st.proto.Read32(c, o, off)
}

func (b *adaptiveBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	st := b.st(o)
	st.wordOps++
	st.proto.Write32(c, o, off, v)
}

func (b *adaptiveBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	st := b.st(o)
	st.blockWords += len(dst)
	st.proto.ReadRange(c, o, off, dst)
}

func (b *adaptiveBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	st := b.st(o)
	st.blockWords += len(src)
	st.proto.WriteRange(c, o, off, src)
}

// CopyRange accelerates object-to-object copies only when both objects are
// currently served by the same protocol and it has block-move hardware.
func (b *adaptiveBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	ss, ds := b.st(src), b.st(dst)
	ss.blockWords += words
	if ds != ss {
		ds.blockWords += words
	}
	if ss.proto != ds.proto {
		return nil, false
	}
	if rc, ok := ss.proto.(rangeCopier); ok {
		return rc.CopyRange(c, dst, dstOff, src, srcOff, words, wantVals)
	}
	return nil, false
}

// lockTransfer dispatches the handoff to the object's current protocol
// (dsm replica forwarding when the object is on dsm; nothing otherwise).
func (b *adaptiveBackend) lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time {
	if lt, ok := b.st(o).proto.(lockTransferrer); ok {
		return lt.lockTransfer(rt, o, from, to, t)
	}
	return t
}

// initReplicas keeps the inner dsm replicas warm so a later migration to
// dsm (or a pre-migration InitObject) always finds consistent data.
func (b *adaptiveBackend) initReplicas(rt *Runtime, o *Object, image []byte) {
	b.dsm.initReplicas(rt, o, image)
}

// readCanonical reads the authoritative copy under the current protocol:
// the last writer's replica while on dsm, SDRAM otherwise.
func (b *adaptiveBackend) readCanonical(rt *Runtime, o *Object, wordIdx int) uint32 {
	if b.st(o).proto == Backend(b.dsm) {
		return b.dsm.readCanonical(rt, o, wordIdx)
	}
	return rt.Sys.SDRAM.Read32(o.Addr + mem.Addr(4*wordIdx))
}

// heapLimit bounds the heap to the local memory, which both the dsm
// replicas and the spm staging arena live in.
func (b *adaptiveBackend) heapLimit(rt *Runtime) int { return b.dsm.heapLimit(rt) }
