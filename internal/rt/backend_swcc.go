package rt

import (
	"pmc/internal/mem"
	"pmc/internal/sim"
)

// swccBackend implements software cache coherency over the non-coherent
// write-back caches (Table II, second column; the protocol "resembles the
// BACKER cache coherency protocol"). The invariant is that a shared object
// never resides in any cache outside an entry/exit pair:
//
//   - entry_x acquires the object's distributed lock; the object is not
//     cached (the previous exit flushed it), so subsequent accesses refill
//     from SDRAM, which holds the last owner's data;
//   - exit_x flush-invalidates the object's lines (writing dirty data back)
//     and then releases the lock — the eager-release variant. The lazy
//     variant defers the flush until the lock is transferred to another
//     tile (the paper's entry_x description); select it with Lazy;
//   - entry_ro locks multi-word objects (no reader/writer locks exist) and
//     reads warm the cache; exit_ro flush-invalidates the lines (clean
//     lines cost only the cache-control instructions) and unlocks;
//   - flush(X) flush-invalidates the lines inside an exclusive scope.
type swccBackend struct {
	// Lazy defers the exit_x flush to lock-transfer time (ablation).
	Lazy bool
}

// SWCC returns the software-cache-coherency backend of Fig. 8, with the
// eager-release exit protocol.
func SWCC() Backend { return &swccBackend{} }

// SWCCLazy returns the lazy-release variant: dirty data stays cached across
// exit_x and is flushed only when the lock moves to another tile.
func SWCCLazy() Backend { return &swccBackend{Lazy: true} }

func (b *swccBackend) Name() string {
	if b.Lazy {
		return "swcc-lazy"
	}
	return "swcc"
}

func (b *swccBackend) Init(rt *Runtime) {}

// lockTransfer implements the lazy-release variant: when a lock moves
// between tiles, the previous owner's cache flushes the object's lines
// before the grant is sent. The flush is performed by the lock unit's
// transfer logic, so its bus time delays the new owner's grant rather than
// stalling the previous owner. The eager variant publishes at exit_x and
// has nothing to do at transfer time.
func (b *swccBackend) lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time {
	if !b.Lazy {
		return t
	}
	dc := rt.Sys.Tiles[from].DC
	end := t
	for a := dc.LineBase(o.Addr); a < o.Addr+mem.Addr(o.Size); a += mem.LineSize {
		if tr := dc.FlushLine(a); tr.Writeback {
			end = rt.Sys.SDRAM.ReserveLineWB(end, a)
		}
	}
	return end
}

func (b *swccBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
}

func (b *swccBackend) ExitX(c *Ctx, o *Object) {
	if !b.Lazy {
		c.T.FlushShared(c.P, o.Addr, o.Size)
	}
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b *swccBackend) EntryRO(c *Ctx, o *Object) {
	if o.Size > AtomicSize {
		c.T.AcquireLock(c.P, o.LockID)
		c.scopes[o].locked = true
	}
}

func (b *swccBackend) ExitRO(c *Ctx, o *Object) {
	// Force the object out of the cache so the next scope observes
	// fresh data; the lines are clean, so this costs only the
	// cache-control instructions.
	c.T.FlushShared(c.P, o.Addr, o.Size)
	if c.scopes[o].locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b *swccBackend) Fence(c *Ctx) {
	// In-order MicroBlaze: compiler barrier only, no instructions.
}

func (b *swccBackend) Flush(c *Ctx, o *Object) {
	c.T.FlushShared(c.P, o.Addr, o.Size)
}

func (b *swccBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	return c.T.ReadShared32Cached(c.P, o.Addr+mem.Addr(off))
}

func (b *swccBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	c.T.WriteShared32Cached(c.P, o.Addr+mem.Addr(off), v)
}

// ReadRange reads through the D-cache with every missing line of the range
// installed by one multi-line burst transaction; each touched line moves
// over the bus at most once per range.
func (b *swccBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	c.T.ReadSharedRangeCached(c.P, o.Addr+mem.Addr(off), dst)
}

// WriteRange writes through the D-cache: fully covered lines are installed
// dirty without a write-allocate fill, boundary lines are burst-filled
// once.
func (b *swccBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	c.T.WriteSharedRangeCached(c.P, o.Addr+mem.Addr(off), src)
}
