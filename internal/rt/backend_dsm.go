package rt

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/sim"
	"pmc/internal/soc"
)

// replicaBackend implements the distributed-shared-memory architecture of
// Table II's third column at one memory level: every unit of the level
// holds a full replica of the shared heap in its memory, and the SDRAM is
// not used for shared data. dsm keeps one replica per tile, in the
// tile-local memory; cdsm keeps one per cluster, in the cluster scratch,
// which its member tiles reach through the crossbar. Reads and writes
// touch only the caller's unit's replica; coherence is maintained purely
// with remote writes over the write-only NoC:
//
//   - exit_x is lazy: modifications stay in the unit's replica;
//   - when an object's lock is transferred to a tile of another unit, the
//     previous owner writes its unit's version of the object into the
//     acquirer's unit's replica before the grant is delivered ("the local
//     version of the object is written to the local memory of the
//     acquiring processor"); a transfer within a unit moves no data, since
//     both tiles already share the replica;
//   - flush(X) broadcasts the object to every other unit's replica,
//     addressed at each unit's gateway tile, which is what lets concurrent
//     read-only observers (pollers) eventually see updates;
//   - entry_ro locks multi-word objects; word-sized objects are read
//     lock-free from the replica — the property the paper's FIFO exploits
//     ("the read and write pointers are only polled from local memory,
//     which is fast and does not influence the execution of other
//     processors").
//
// On the flat (1-cluster) system every cdsm transfer is intra-cluster and
// flush fans to nobody: the protocol degenerates to shared-scratch
// locking. Verification applies unchanged at both levels because every
// operation lowers to the same per-word model reads and writes.
type replicaBackend struct {
	name       string
	level      soc.Level
	lastWriter map[int]int // object ID -> unit that last held it exclusively
}

// DSM returns the distributed-shared-memory backend (Section VI-B): one
// replica per tile-local memory.
func DSM() Backend { return newReplica("dsm", soc.LevelLocal) }

// CDSM returns the clustered distributed-shared-memory backend: one replica
// per cluster scratch.
func CDSM() Backend { return newReplica("cdsm", soc.LevelCluster) }

func newReplica(name string, l soc.Level) *replicaBackend {
	return &replicaBackend{name: name, level: l, lastWriter: make(map[int]int)}
}

func (b *replicaBackend) Name() string { return b.name }

// replicaAddr returns the address of o's replica inside unit u's memory:
// the shared heap maps 1:1 into each replica memory.
func (b *replicaBackend) replicaAddr(u int, o *Object) mem.Addr {
	return b.level.Addr(u, o.Addr)
}

func (b *replicaBackend) Init(rt *Runtime) {
	if rt.Sys.DLock == nil {
		panic(fmt.Sprintf("rt: the %s backend needs the distributed lock", b.name))
	}
}

// lockTransfer carries the object data with a lock handoff between units:
// home notifies the previous owner, the previous owner pushes its unit's
// version into the acquirer's unit's replica, and the grant follows once
// the data has landed. The runtime's transfer mux dispatches here for
// objects routed to this backend.
func (b *replicaBackend) lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time {
	fromU := rt.Sys.Tiles[from].Unit(b.level)
	toU := rt.Sys.Tiles[to].Unit(b.level)
	if fromU == toU {
		return t
	}
	net := rt.Sys.Net
	home := rt.Sys.DLock.Home(o.LockID)
	notifyAt := t + net.ControlLatency(home, from, 8)
	buf := make([]byte, o.WordCount()*4)
	rt.Sys.Mem(b.level, fromU).ReadBlock(b.replicaAddr(fromU, o), buf)
	return net.PostWriteDelayed(from, to, b.replicaAddr(toU, o), buf, notifyAt)
}

// initReplicas pre-loads every unit's replica (setup, outside simulated
// time) through the level's seed image: the shared heap maps 1:1 into
// each replica memory, so the object's offset in every unit is o.Addr.
func (b *replicaBackend) initReplicas(rt *Runtime, o *Object, image []byte) {
	rt.Sys.SeedLevel(b.level, o.Addr, image)
}

// readCanonical returns the authoritative copy: the replica of the unit
// that last held the object exclusively (zero value: unit 0).
func (b *replicaBackend) readCanonical(rt *Runtime, o *Object, wordIdx int) uint32 {
	u := b.lastWriter[o.ID]
	return rt.Sys.Mem(b.level, u).Read32(b.replicaAddr(u, o) + mem.Addr(4*wordIdx))
}

// heapLimit bounds the shared heap to the size of one replica memory.
func (b *replicaBackend) heapLimit(rt *Runtime) int {
	return rt.Sys.MemBytes(b.level)
}

func (b *replicaBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	b.lastWriter[o.ID] = c.T.Unit(b.level)
}

func (b *replicaBackend) ExitX(c *Ctx, o *Object) {
	// Lazy release: nothing to publish; the transfer hook moves data
	// when the lock next changes units.
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b *replicaBackend) EntryRO(c *Ctx, o *Object) {
	if o.Size > AtomicSize {
		c.T.AcquireLock(c.P, o.LockID)
		c.scopes[o].locked = true
	}
}

func (b *replicaBackend) ExitRO(c *Ctx, o *Object) {
	if c.scopes[o].locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b *replicaBackend) Fence(c *Ctx) {
	// In-order core, local-memory and crossbar accesses complete in
	// order: compiler barrier only.
}

// Flush broadcasts the object from the caller's unit's replica to every
// other unit as a single burst of posted writes over the write-only NoC,
// one per unit gateway: the core programs the network interface once and
// the NI streams the per-destination messages back-to-back (per-flit
// pipelining), instead of the core paying an injection cycle per
// destination. The fan degree is the unit count: every tile for dsm,
// every cluster for cdsm. Delivery remains asynchronous (best effort, as
// the model requires).
func (b *replicaBackend) Flush(c *Ctx, o *Object) {
	sys := c.rt.Sys
	units := sys.Units(b.level)
	if units < 2 {
		return
	}
	my := c.T.Unit(b.level)
	buf := make([]byte, o.WordCount()*4)
	c.T.Mem(b.level).ReadBlock(b.replicaAddr(my, o), buf)
	dsts := make([]int, 0, units-1)
	for u := 0; u < units; u++ {
		if u != my {
			dsts = append(dsts, sys.Gateway(b.level, u))
		}
	}
	c.T.Exec(c.P, 1) // one injection op programs the whole burst
	sys.Net.PostWriteFan(c.T.ID, dsts, func(t int) mem.Addr {
		return b.replicaAddr(sys.Tiles[t].Unit(b.level), o)
	}, buf)
}

func (b *replicaBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	return c.T.ReadLevel32(c.P, b.level, b.replicaAddr(c.T.Unit(b.level), o)+mem.Addr(off))
}

func (b *replicaBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	c.T.WriteLevel32(c.P, b.level, b.replicaAddr(c.T.Unit(b.level), o)+mem.Addr(off), v)
}

// ReadRange streams words out of the unit's replica. The memory serves
// one word per load either way, so the range costs exactly the word loop;
// the DSM block win lives in CopyRange and the flush burst.
func (b *replicaBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	c.T.ReadLevelRange(c.P, b.level, b.replicaAddr(c.T.Unit(b.level), o)+mem.Addr(off), dst)
}

// WriteRange streams words into the unit's replica.
func (b *replicaBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	c.T.WriteLevelRange(c.P, b.level, b.replicaAddr(c.T.Unit(b.level), o)+mem.Addr(off), src)
}

// CopyRange moves data between two replicas in the unit's memory with its
// dual-port DMA: read and write ports overlap at one word per cycle, half
// the cost of the load/store-per-word loop.
func (b *replicaBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	u := c.T.Unit(b.level)
	srcA := b.replicaAddr(u, src) + mem.Addr(srcOff)
	dstA := b.replicaAddr(u, dst) + mem.Addr(dstOff)
	return copyLevelDMA(c, b.level, srcA, dstA, words, wantVals), true
}
