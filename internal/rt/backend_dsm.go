package rt

import (
	"pmc/internal/mem"
	"pmc/internal/sim"
	"pmc/internal/soc"
)

// dsmBackend implements the distributed-shared-memory architecture of
// Table II's third column: every tile holds a full replica of the shared
// heap in its local memory, and the SDRAM is not used for shared data.
// Reads and writes touch only the tile's own replica (single-cycle);
// coherence is maintained purely with remote writes over the write-only
// NoC:
//
//   - exit_x is lazy: modifications stay in the local replica;
//   - when an object's lock is transferred to another tile, the previous
//     owner writes its version of the object into the acquirer's local
//     memory before the grant is delivered ("the local version of the
//     object is written to the local memory of the acquiring processor");
//   - flush(X) broadcasts the object to every other tile's replica, which
//     is what lets concurrent read-only observers (pollers) eventually see
//     updates;
//   - entry_ro locks multi-word objects; word-sized objects are read
//     lock-free from the local replica — the property the paper's FIFO
//     exploits ("the read and write pointers are only polled from local
//     memory, which is fast and does not influence the execution of other
//     processors").
type dsmBackend struct {
	lastWriter map[int]int // object ID -> tile that last held it exclusively
}

// DSM returns the distributed-shared-memory backend (Section VI-B).
func DSM() Backend { return &dsmBackend{lastWriter: make(map[int]int)} }

func (b *dsmBackend) Name() string { return "dsm" }

// replicaAddr returns the address of o's replica inside tile t's local
// memory: the shared heap maps 1:1 into each local memory.
func (b *dsmBackend) replicaAddr(t int, o *Object) mem.Addr {
	return soc.LocalAddr(t, o.Addr)
}

func (b *dsmBackend) Init(rt *Runtime) {
	if rt.Sys.DLock == nil {
		panic("rt: the dsm backend needs the distributed lock")
	}
}

// lockTransfer carries the object data with the lock handoff: home
// notifies the previous owner, the previous owner pushes its version into
// the acquirer's replica, and the grant follows once the data has landed.
// The runtime's transfer mux dispatches here for dsm-routed objects.
func (b *dsmBackend) lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time {
	net := rt.Sys.Net
	home := rt.Sys.DLock.Home(o.LockID)
	notifyAt := t + net.ControlLatency(home, from, 8)
	buf := make([]byte, o.WordCount()*4)
	rt.Sys.Locals[from].ReadBlock(b.replicaAddr(from, o), buf)
	deliveredAt := net.PostWriteDelayed(from, to, b.replicaAddr(to, o), buf, notifyAt)
	return deliveredAt
}

// initReplicas pre-loads every tile's replica (setup, outside simulated
// time) with one block write per local memory.
func (b *dsmBackend) initReplicas(rt *Runtime, o *Object, image []byte) {
	for t, l := range rt.Sys.Locals {
		l.WriteBlock(b.replicaAddr(t, o), image)
	}
}

// readCanonical returns the authoritative copy: the replica of the tile
// that last held the object exclusively (zero value: tile 0).
func (b *dsmBackend) readCanonical(rt *Runtime, o *Object, wordIdx int) uint32 {
	t := b.lastWriter[o.ID]
	return rt.Sys.Locals[t].Read32(b.replicaAddr(t, o) + mem.Addr(4*wordIdx))
}

// heapLimit bounds the shared heap to the per-tile local memory size.
func (b *dsmBackend) heapLimit(rt *Runtime) int {
	return rt.Sys.Cfg.LocalBytes
}

func (b *dsmBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	b.lastWriter[o.ID] = c.T.ID
}

func (b *dsmBackend) ExitX(c *Ctx, o *Object) {
	// Lazy release: nothing to publish; the transfer hook moves data
	// when the lock next changes tiles.
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b *dsmBackend) EntryRO(c *Ctx, o *Object) {
	if o.Size > AtomicSize {
		c.T.AcquireLock(c.P, o.LockID)
		c.scopes[o].locked = true
	}
}

func (b *dsmBackend) ExitRO(c *Ctx, o *Object) {
	if c.scopes[o].locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b *dsmBackend) Fence(c *Ctx) {
	// In-order core, local-memory accesses complete in order: compiler
	// barrier only.
}

// Flush broadcasts the object from the caller's replica to all other
// tiles as a single burst of posted writes over the write-only NoC: the
// core programs the network interface once and the NI streams the
// per-destination messages back-to-back (per-flit pipelining), instead of
// the core paying an injection cycle per destination. Delivery remains
// asynchronous (best effort, as the model requires).
func (b *dsmBackend) Flush(c *Ctx, o *Object) {
	locals := c.rt.Sys.Locals
	if len(locals) < 2 {
		return
	}
	buf := make([]byte, o.WordCount()*4)
	c.T.Local.ReadBlock(b.replicaAddr(c.T.ID, o), buf)
	dsts := make([]int, 0, len(locals)-1)
	for t := range locals {
		if t != c.T.ID {
			dsts = append(dsts, t)
		}
	}
	c.T.Exec(c.P, 1) // one injection op programs the whole burst
	c.rt.Sys.Net.PostWriteFan(c.T.ID, dsts, func(t int) mem.Addr { return b.replicaAddr(t, o) }, buf)
}

func (b *dsmBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	return c.T.ReadLocal32(c.P, b.replicaAddr(c.T.ID, o)+mem.Addr(off))
}

func (b *dsmBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	c.T.WriteLocal32(c.P, b.replicaAddr(c.T.ID, o)+mem.Addr(off), v)
}

// ReadRange streams words out of the tile's own replica. The local memory
// serves one word per load either way, so the range costs exactly the
// word loop; the DSM block win lives in CopyRange and the flush burst.
func (b *dsmBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	readLocalRange(c, b.replicaAddr(c.T.ID, o)+mem.Addr(off), dst)
}

// WriteRange streams words into the tile's own replica.
func (b *dsmBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	writeLocalRange(c, b.replicaAddr(c.T.ID, o)+mem.Addr(off), src)
}

// CopyRange moves data between two replicas in the tile's local memory
// with the dual-port DMA: read and write ports overlap at one word per
// cycle, half the cost of the load/store-per-word loop.
func (b *dsmBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	srcA := b.replicaAddr(c.T.ID, src) + mem.Addr(srcOff)
	dstA := b.replicaAddr(c.T.ID, dst) + mem.Addr(dstOff)
	return copyLocalDMA(c, srcA, dstA, words, wantVals), true
}
