package rt

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/soc"
)

// spmBackend implements the scratch-pad architecture of Table II's fourth
// column: the canonical copy of every shared object lives in SDRAM, and an
// entry copies the object into the tile's local memory for the scope's
// lifetime:
//
//   - entry_x locks the object and copies SDRAM → SPM; all accesses inside
//     the scope hit the single-cycle local copy;
//   - exit_x copies the (possibly modified) object back to SDRAM and
//     unlocks;
//   - entry_ro copies the object in (locking multi-word objects only for
//     the duration of the copy — unlike SWCC/DSM, readers then proceed
//     concurrently); exit_ro discards the copy;
//   - flush copies the object back to SDRAM without closing the scope.
//
// This is the architecture of the motion-estimation case study
// (Section VI-C): kernels with high reuse per scope amortize the copies.
type spmBackend struct{}

// SPM returns the scratch-pad-memory backend.
func SPM() Backend { return spmBackend{} }

func (spmBackend) Name() string     { return "spm" }
func (spmBackend) Init(rt *Runtime) {}

func (b spmBackend) stage(c *Ctx, o *Object) mem.Addr {
	if !c.spm.inited {
		c.spm.init(c.rt.stagingBase(), c.rt.Sys.Cfg.LocalBytes)
	}
	off, ok := c.spm.alloc(o.WordCount() * 4)
	if !ok {
		panic(fmt.Sprintf("rt: tile %d SPM exhausted staging %s (%d B)", c.T.ID, o.Name, o.Size))
	}
	addr := soc.LocalAddr(c.T.ID, off)
	c.T.CopyToLocal(c.P, o.Addr, addr, o.WordCount()*4)
	return addr
}

func (b spmBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	c.scopes[o].spmAddr = b.stage(c, o)
}

func (b spmBackend) ExitX(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromLocal(c.P, s.spmAddr, o.Addr, o.WordCount()*4)
	_, off := soc.LocalOffset(s.spmAddr)
	c.spm.release(off, o.WordCount()*4)
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b spmBackend) EntryRO(c *Ctx, o *Object) {
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

func (b spmBackend) ExitRO(c *Ctx, o *Object) {
	s := c.scopes[o]
	_, off := soc.LocalOffset(s.spmAddr)
	c.spm.release(off, o.WordCount()*4) // discard the copy
}

func (spmBackend) Fence(c *Ctx) {
	// Copies complete before the annotation returns; compiler barrier
	// only.
}

func (b spmBackend) Flush(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromLocal(c.P, s.spmAddr, o.Addr, o.WordCount()*4)
}

func (b spmBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	s, ok := c.scopes[o]
	if !ok {
		// Discipline violation already recorded; fall back to the
		// canonical copy so the simulation can continue.
		return c.T.ReadShared32Uncached(c.P, o.Addr+mem.Addr(off))
	}
	return c.T.ReadLocal32(c.P, s.spmAddr+mem.Addr(off))
}

func (b spmBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	s, ok := c.scopes[o]
	if !ok {
		c.T.WriteShared32Uncached(c.P, o.Addr+mem.Addr(off), v)
		return
	}
	c.T.WriteLocal32(c.P, s.spmAddr+mem.Addr(off), v)
}

// ReadRange streams words out of the staged scratch-pad copy (the whole
// object was staged by one DMA burst at entry; see stage). Out-of-scope
// ranges — already reported as violations — fall back to the uncached
// canonical copy, word by word, like Read32.
func (b spmBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		readRangeByWords(b, c, o, off, dst)
		return
	}
	readLocalRange(c, s.spmAddr+mem.Addr(off), dst)
}

// WriteRange streams words into the staged scratch-pad copy.
func (b spmBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		writeRangeByWords(b, c, o, off, src)
		return
	}
	writeLocalRange(c, s.spmAddr+mem.Addr(off), src)
}

// CopyRange moves data between two staged copies with the scratch-pad's
// dual-port DMA (one word per cycle, read and write overlapped). When
// either object is not staged the caller falls back to the ranged
// read/write lowering.
func (b spmBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	ss, okS := c.scopes[src]
	ds, okD := c.scopes[dst]
	if !okS || !okD {
		return nil, false
	}
	return copyLocalDMA(c, ss.spmAddr+mem.Addr(srcOff), ds.spmAddr+mem.Addr(dstOff), words, wantVals), true
}
