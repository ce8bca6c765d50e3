package rt

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/soc"
)

// stagingBackend implements the scratch-pad architecture of Table II's
// fourth column at one memory level: the canonical copy of every shared
// object lives in SDRAM, and an entry copies the object into the caller's
// unit's memory for the scope's lifetime. spm stages into the tile-local
// memory; cspm stages into the cluster scratch, whose larger capacity is
// shared by the member tiles at the price of the crossbar cycle on every
// access:
//
//   - entry_x locks the object and copies SDRAM → staging memory; all
//     accesses inside the scope hit the staged copy;
//   - exit_x copies the (possibly modified) object back to SDRAM and
//     unlocks;
//   - entry_ro copies the object in (locking multi-word objects only for
//     the duration of the copy — unlike SWCC/DSM, readers then proceed
//     concurrently); exit_ro discards the copy;
//   - flush copies the object back to SDRAM without closing the scope.
//
// Staged copies are carved from the runtime's arena for the unit's memory
// (Runtime.arena), shared by every worker the unit hosts; the simulation
// kernel is single-threaded, so allocation order (and therefore every
// address and cycle count) is deterministic. This is the architecture of
// the motion-estimation case study (Section VI-C): kernels with high
// reuse per scope amortize the copies.
type stagingBackend struct {
	name  string
	level soc.Level
}

// SPM returns the scratch-pad-memory backend: scopes stage into the
// tile-local memory.
func SPM() Backend { return &stagingBackend{name: "spm", level: soc.LevelLocal} }

// CSPM returns the clustered scratch-pad backend: scopes stage into the
// cluster scratch.
func CSPM() Backend { return &stagingBackend{name: "cspm", level: soc.LevelCluster} }

func (b *stagingBackend) Name() string     { return b.name }
func (b *stagingBackend) Init(rt *Runtime) {}

func (b *stagingBackend) stage(c *Ctx, o *Object) mem.Addr {
	u := c.T.Unit(b.level)
	off, ok := c.rt.arena(b.level, u).alloc(o.WordCount() * 4)
	if !ok {
		panic(fmt.Sprintf("rt: %s %d exhausted staging %s (%d B)", b.level, u, o.Name, o.Size))
	}
	addr := b.level.Addr(u, off)
	c.T.CopyToLevel(c.P, b.level, o.Addr, addr, o.WordCount()*4)
	return addr
}

func (b *stagingBackend) unstage(c *Ctx, o *Object, addr mem.Addr) {
	u, off := b.level.Offset(addr)
	c.rt.arena(b.level, u).release(off, o.WordCount()*4)
}

func (b *stagingBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	c.scopes[o].spmAddr = b.stage(c, o)
}

func (b *stagingBackend) ExitX(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromLevel(c.P, b.level, s.spmAddr, o.Addr, o.WordCount()*4)
	b.unstage(c, o, s.spmAddr)
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b *stagingBackend) EntryRO(c *Ctx, o *Object) {
	// Lock held only while copying (Table II: "the object is locked
	// before copying and unlocked afterwards").
	locked := o.Size > AtomicSize
	if locked {
		c.T.AcquireLock(c.P, o.LockID)
	}
	c.scopes[o].spmAddr = b.stage(c, o)
	if locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b *stagingBackend) ExitRO(c *Ctx, o *Object) {
	b.unstage(c, o, c.scopes[o].spmAddr) // discard the copy
}

func (b *stagingBackend) Fence(c *Ctx) {
	// Copies complete before the annotation returns; compiler barrier
	// only.
}

func (b *stagingBackend) Flush(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromLevel(c.P, b.level, s.spmAddr, o.Addr, o.WordCount()*4)
}

func (b *stagingBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	s, ok := c.scopes[o]
	if !ok {
		// Discipline violation already recorded; fall back to the
		// canonical copy so the simulation can continue.
		return c.T.ReadShared32Uncached(c.P, o.Addr+mem.Addr(off))
	}
	return c.T.ReadLevel32(c.P, b.level, s.spmAddr+mem.Addr(off))
}

func (b *stagingBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	s, ok := c.scopes[o]
	if !ok {
		c.T.WriteShared32Uncached(c.P, o.Addr+mem.Addr(off), v)
		return
	}
	c.T.WriteLevel32(c.P, b.level, s.spmAddr+mem.Addr(off), v)
}

// ReadRange streams words out of the staged copy (the whole object was
// staged by one DMA burst at entry; see stage). Out-of-scope ranges —
// already reported as violations — fall back to the uncached canonical
// copy, word by word, like Read32.
func (b *stagingBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		readRangeByWords(b, c, o, off, dst)
		return
	}
	c.T.ReadLevelRange(c.P, b.level, s.spmAddr+mem.Addr(off), dst)
}

// WriteRange streams words into the staged copy.
func (b *stagingBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		writeRangeByWords(b, c, o, off, src)
		return
	}
	c.T.WriteLevelRange(c.P, b.level, s.spmAddr+mem.Addr(off), src)
}

// CopyRange moves data between two staged copies with the staging
// memory's dual-port DMA (one word per cycle, read and write overlapped).
// When either object is not staged the caller falls back to the ranged
// read/write lowering.
func (b *stagingBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	ss, okS := c.scopes[src]
	ds, okD := c.scopes[dst]
	if !okS || !okD {
		return nil, false
	}
	return copyLevelDMA(c, b.level, ss.spmAddr+mem.Addr(srcOff), ds.spmAddr+mem.Addr(dstOff), words, wantVals), true
}
