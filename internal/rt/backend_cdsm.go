package rt

import (
	"pmc/internal/mem"
	"pmc/internal/sim"
	"pmc/internal/soc"
)

// cdsmBackend is the cluster-aware variant of the DSM architecture: instead
// of one replica of the shared heap per tile (dsm), it keeps one replica
// per cluster, in the cluster's scratch memory. Member tiles reach their
// replica through the cluster crossbar; coherence actions only cross the
// backbone when data actually changes clusters:
//
//   - reads and writes inside a scope touch the tile's own cluster replica;
//   - a lock transfer between tiles of the same cluster moves no data at
//     all (they already share the replica);
//   - a transfer across clusters has the previous owner push its cluster's
//     version into the acquirer's cluster replica over the NoC;
//   - flush broadcasts to one gateway per other cluster rather than to
//     every tile — the fan degree is the cluster count, not the tile count.
//
// On the flat (1-cluster) system every transfer is intra-cluster and flush
// fans to nobody: the backend degenerates to shared-scratch locking.
// Verification applies unchanged because every operation lowers to the
// same per-word model reads and writes as dsm.
type cdsmBackend struct {
	lastWriter map[int]int // object ID -> cluster that last held it exclusively
}

// CDSM returns the clustered distributed-shared-memory backend.
func CDSM() Backend { return &cdsmBackend{lastWriter: make(map[int]int)} }

func (b *cdsmBackend) Name() string { return "cdsm" }

// replicaAddr returns the address of o's replica inside cluster cl's
// scratch memory: the shared heap maps 1:1 into each cluster scratch.
func (b *cdsmBackend) replicaAddr(cl int, o *Object) mem.Addr {
	return soc.ClusterAddr(cl, o.Addr)
}

func (b *cdsmBackend) Init(rt *Runtime) {
	if rt.Sys.DLock == nil {
		panic("rt: the cdsm backend needs the distributed lock")
	}
}

// lockTransfer carries the object data only when the lock actually changes
// clusters; intra-cluster transfers find the data already in the shared
// replica. The runtime's transfer mux dispatches here for cdsm-routed
// objects.
func (b *cdsmBackend) lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time {
	net := rt.Sys.Net
	fromCl := rt.Sys.ClusterOf(from)
	toCl := rt.Sys.ClusterOf(to)
	if fromCl == toCl {
		return t
	}
	home := rt.Sys.DLock.Home(o.LockID)
	notifyAt := t + net.ControlLatency(home, from, 8)
	buf := make([]byte, o.WordCount()*4)
	fromCl.Scratch.ReadBlock(b.replicaAddr(fromCl.ID, o), buf)
	return net.PostWriteDelayed(from, to, b.replicaAddr(toCl.ID, o), buf, notifyAt)
}

// initReplicas pre-loads every cluster's replica (setup, outside simulated
// time) with one block write per cluster scratch.
func (b *cdsmBackend) initReplicas(rt *Runtime, o *Object, image []byte) {
	for _, cl := range rt.Sys.Clusters {
		cl.Scratch.WriteBlock(b.replicaAddr(cl.ID, o), image)
	}
}

// readCanonical returns the authoritative copy: the replica of the cluster
// that last held the object exclusively (zero value: cluster 0).
func (b *cdsmBackend) readCanonical(rt *Runtime, o *Object, wordIdx int) uint32 {
	cl := rt.Sys.Clusters[b.lastWriter[o.ID]]
	return cl.Scratch.Read32(b.replicaAddr(cl.ID, o) + mem.Addr(4*wordIdx))
}

// heapLimit bounds the shared heap to the per-cluster scratch size.
func (b *cdsmBackend) heapLimit(rt *Runtime) int {
	return rt.Sys.Cfg.ClusterMemBytes()
}

func (b *cdsmBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	b.lastWriter[o.ID] = c.T.Cluster.ID
}

func (b *cdsmBackend) ExitX(c *Ctx, o *Object) {
	// Lazy release, as in dsm: the transfer hook moves data when the lock
	// next changes clusters.
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b *cdsmBackend) EntryRO(c *Ctx, o *Object) {
	if o.Size > AtomicSize {
		c.T.AcquireLock(c.P, o.LockID)
		c.scopes[o].locked = true
	}
}

func (b *cdsmBackend) ExitRO(c *Ctx, o *Object) {
	if c.scopes[o].locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b *cdsmBackend) Fence(c *Ctx) {
	// In-order core, crossbar accesses complete in order: compiler
	// barrier only.
}

// Flush broadcasts the object from the caller's cluster replica to every
// other cluster's replica as one posted-write burst, addressed at one
// gateway tile per cluster (the delivery lands in the cluster scratch the
// address names; the gateway only determines the route).
func (b *cdsmBackend) Flush(c *Ctx, o *Object) {
	clusters := c.rt.Sys.Clusters
	if len(clusters) < 2 {
		return
	}
	my := c.T.Cluster
	buf := make([]byte, o.WordCount()*4)
	my.Scratch.ReadBlock(b.replicaAddr(my.ID, o), buf)
	dsts := make([]int, 0, len(clusters)-1)
	for _, cl := range clusters {
		if cl != my {
			dsts = append(dsts, cl.Tiles[0].ID)
		}
	}
	c.T.Exec(c.P, 1) // one injection op programs the whole burst
	c.rt.Sys.Net.PostWriteFan(c.T.ID, dsts, func(t int) mem.Addr {
		return b.replicaAddr(c.rt.Sys.ClusterOf(t).ID, o)
	}, buf)
}

func (b *cdsmBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	return c.T.ReadCluster32(c.P, b.replicaAddr(c.T.Cluster.ID, o)+mem.Addr(off))
}

func (b *cdsmBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	c.T.WriteCluster32(c.P, b.replicaAddr(c.T.Cluster.ID, o)+mem.Addr(off), v)
}

// ReadRange streams words out of the cluster replica, one crossbar load
// per word.
func (b *cdsmBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	readClusterRange(c, b.replicaAddr(c.T.Cluster.ID, o)+mem.Addr(off), dst)
}

// WriteRange streams words into the cluster replica.
func (b *cdsmBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	writeClusterRange(c, b.replicaAddr(c.T.Cluster.ID, o)+mem.Addr(off), src)
}

// CopyRange moves data between two replicas in the same cluster scratch
// with the scratch's DMA port.
func (b *cdsmBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	cl := c.T.Cluster.ID
	srcA := b.replicaAddr(cl, src) + mem.Addr(srcOff)
	dstA := b.replicaAddr(cl, dst) + mem.Addr(dstOff)
	return copyClusterDMA(c, srcA, dstA, words, wantVals), true
}

// readClusterRange streams a word range out of a resolved cluster-scratch
// address, one crossbar load per word.
func readClusterRange(c *Ctx, base mem.Addr, dst []uint32) {
	for i := range dst {
		dst[i] = c.T.ReadCluster32(c.P, base+mem.Addr(4*i))
	}
}

// writeClusterRange streams a word range into a resolved cluster-scratch
// address, one crossbar store per word.
func writeClusterRange(c *Ctx, base mem.Addr, src []uint32) {
	for i, v := range src {
		c.T.WriteCluster32(c.P, base+mem.Addr(4*i), v)
	}
}

// copyClusterDMA runs the cluster-scratch DMA between two resolved scratch
// addresses, returning the copied values only on demand.
func copyClusterDMA(c *Ctx, srcA, dstA mem.Addr, words int, wantVals bool) []uint32 {
	c.T.CopyCluster(c.P, srcA, dstA, words*4)
	if !wantVals {
		return nil
	}
	vals := make([]uint32, words)
	scratch := c.T.Cluster.Scratch
	for i := range vals {
		vals[i] = scratch.Read32(dstA + mem.Addr(4*i))
	}
	return vals
}
