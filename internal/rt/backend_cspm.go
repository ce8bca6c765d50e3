package rt

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/soc"
)

// cspmBackend is the cluster-aware variant of the scratch-pad architecture:
// scopes stage their object into the cluster's scratch memory instead of
// the tile's local memory. The canonical copy still lives in SDRAM; entry
// copies SDRAM → cluster scratch in one burst, accesses inside the scope
// pay one crossbar traversal instead of a full SDRAM round trip, and exit
// copies back.
//
// Compared to spm, the staging capacity is the (larger) cluster scratch
// shared by all member tiles — a cluster's working set is staged once per
// scope regardless of which member runs it — at the price of the crossbar
// cycle on every access. The staging arena is per cluster and shared by
// all member workers; the simulation kernel is single-threaded, so
// allocation order (and therefore every address and cycle count) is
// deterministic. Verification applies unchanged: every operation lowers to
// the same per-word model reads and writes as spm.
type cspmBackend struct{}

// CSPM returns the clustered scratch-pad backend.
func CSPM() Backend { return cspmBackend{} }

func (cspmBackend) Name() string     { return "cspm" }
func (cspmBackend) Init(rt *Runtime) {}

func (b cspmBackend) stage(c *Ctx, o *Object) mem.Addr {
	cl := c.T.Cluster
	off, ok := c.rt.clusterArena(cl.ID).alloc(o.WordCount() * 4)
	if !ok {
		panic(fmt.Sprintf("rt: cluster %d scratch exhausted staging %s (%d B)", cl.ID, o.Name, o.Size))
	}
	addr := soc.ClusterAddr(cl.ID, off)
	c.T.CopyToCluster(c.P, o.Addr, addr, o.WordCount()*4)
	return addr
}

func (b cspmBackend) unstage(c *Ctx, o *Object, addr mem.Addr) {
	_, off := soc.ClusterOffset(addr)
	c.rt.clusterArena(c.T.Cluster.ID).release(off, o.WordCount()*4)
}

func (b cspmBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	c.scopes[o].spmAddr = b.stage(c, o)
}

func (b cspmBackend) ExitX(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromCluster(c.P, s.spmAddr, o.Addr, o.WordCount()*4)
	b.unstage(c, o, s.spmAddr)
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b cspmBackend) EntryRO(c *Ctx, o *Object) {
	// Lock held only while copying, exactly as in spm.
	locked := o.Size > AtomicSize
	if locked {
		c.T.AcquireLock(c.P, o.LockID)
	}
	c.scopes[o].spmAddr = b.stage(c, o)
	if locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b cspmBackend) ExitRO(c *Ctx, o *Object) {
	b.unstage(c, o, c.scopes[o].spmAddr) // discard the copy
}

func (cspmBackend) Fence(c *Ctx) {
	// Copies complete before the annotation returns; compiler barrier
	// only.
}

func (b cspmBackend) Flush(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromCluster(c.P, s.spmAddr, o.Addr, o.WordCount()*4)
}

func (b cspmBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	s, ok := c.scopes[o]
	if !ok {
		// Discipline violation already recorded; fall back to the
		// canonical copy so the simulation can continue.
		return c.T.ReadShared32Uncached(c.P, o.Addr+mem.Addr(off))
	}
	return c.T.ReadCluster32(c.P, s.spmAddr+mem.Addr(off))
}

func (b cspmBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	s, ok := c.scopes[o]
	if !ok {
		c.T.WriteShared32Uncached(c.P, o.Addr+mem.Addr(off), v)
		return
	}
	c.T.WriteCluster32(c.P, s.spmAddr+mem.Addr(off), v)
}

// ReadRange streams words out of the staged cluster copy; out-of-scope
// ranges fall back to the uncached canonical copy, like Read32.
func (b cspmBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		readRangeByWords(b, c, o, off, dst)
		return
	}
	readClusterRange(c, s.spmAddr+mem.Addr(off), dst)
}

// WriteRange streams words into the staged cluster copy.
func (b cspmBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		writeRangeByWords(b, c, o, off, src)
		return
	}
	writeClusterRange(c, s.spmAddr+mem.Addr(off), src)
}

// CopyRange moves data between two staged copies with the cluster
// scratch's DMA port. When either object is not staged the caller falls
// back to the ranged read/write lowering.
func (b cspmBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	ss, okS := c.scopes[src]
	ds, okD := c.scopes[dst]
	if !okS || !okD {
		return nil, false
	}
	return copyClusterDMA(c, ss.spmAddr+mem.Addr(srcOff), ds.spmAddr+mem.Addr(dstOff), words, wantVals), true
}
