package rt

import "pmc/internal/mem"

// noccBackend is the "no CC" configuration of Section VI-A: private data
// (stack, heap, OS structures) is cached, but all shared application data
// lives in uncached memory, so no coherency protocol is needed and all
// flushes are nullified. Because every shared access goes straight to the
// single SDRAM in bus order, this backend is also the sequentially
// consistent reference used by the differential tests: annotations keep
// mutual exclusion and everything else is a no-op ("for a sequential
// consistent system, the implementation of the annotations is trivial",
// Section V-B).
type noccBackend struct{}

// NoCC returns the uncached-shared-data backend (Fig. 8's baseline).
func NoCC() Backend { return noccBackend{} }

func (noccBackend) Name() string     { return "nocc" }
func (noccBackend) Init(rt *Runtime) {}

func (noccBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
}

func (noccBackend) ExitX(c *Ctx, o *Object) {
	c.T.ReleaseLock(c.P, o.LockID)
}

func (noccBackend) EntryRO(c *Ctx, o *Object) {
	// Multi-word objects need the lock to avoid torn reads (Section
	// V-A); word-sized ones are naturally atomic.
	if o.Size > AtomicSize {
		c.T.AcquireLock(c.P, o.LockID)
		c.scopes[o].locked = true
	}
}

func (noccBackend) ExitRO(c *Ctx, o *Object) {
	if c.scopes[o].locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (noccBackend) Fence(c *Ctx) {
	// In-order core, uncached shared data: hardware already satisfies
	// ≺F; no instructions are emitted (Table II).
}

func (noccBackend) Flush(c *Ctx, o *Object) {
	// Uncached data is already globally visible: nullified.
}

func (noccBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	return c.T.ReadShared32Uncached(c.P, o.Addr+mem.Addr(off))
}

func (noccBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	c.T.WriteShared32Uncached(c.P, o.Addr+mem.Addr(off), v)
}

// ReadRange loops the uncached word path: the plain shared bus port has no
// burst mode (that asymmetry against the cached and local-memory backends
// is exactly what the bulk-ablation experiment measures).
func (b noccBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	readRangeByWords(b, c, o, off, dst)
}

// WriteRange loops the uncached (posted) word path.
func (b noccBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	writeRangeByWords(b, c, o, off, src)
}
