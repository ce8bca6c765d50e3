package workloads

import (
	"fmt"

	"pmc/internal/rt"
)

// Fifo is the reusable multiple-reader, multiple-writer FIFO of Fig. 9: a
// circular buffer of N element objects, one shared write pointer, and a
// read pointer per reader. Every reader consumes every element (it is a
// broadcast FIFO: "Wait until all readers got buf[wp]"). The implementation
// is a direct port of the paper's C++ outline, including the fence
// placement and the flushes that give pollers liveness; on the DSM backend
// the pointer polls hit only the local replicas.
type Fifo struct {
	depth     int
	elemWords int
	readers   int

	writePtr *rt.Object
	readPtrs []*rt.Object
	buf      []*rt.Object
}

// NewFifo allocates a FIFO's shared objects: depth slots of elemWords words
// each, consumed by the given number of readers.
func NewFifo(r *rt.Runtime, name string, depth, elemWords, readers int) *Fifo {
	f := &Fifo{depth: depth, elemWords: elemWords, readers: readers}
	f.writePtr = r.Alloc(name+".write_ptr", 4)
	f.readPtrs = make([]*rt.Object, readers)
	for i := range f.readPtrs {
		f.readPtrs[i] = r.Alloc(fmt.Sprintf("%s.read_ptr%d", name, i), 4)
	}
	f.buf = make([]*rt.Object, depth)
	for i := range f.buf {
		f.buf[i] = r.Alloc(fmt.Sprintf("%s.buf%d", name, i), elemWords*4)
	}
	return f
}

// Push is Fig. 9's push(): the write-pointer lock is held for the whole
// operation, serializing writers.
func (f *Fifo) Push(c *rt.Ctx, data []uint32) {
	c.EntryX(f.writePtr)
	wp := c.Read32(f.writePtr, 0)
	// Wait until all readers got buf[wp] (i.e. consumed item wp-N).
	for i := 0; i < f.readers; i++ {
		for {
			c.EntryRO(f.readPtrs[i])
			rp := c.Read32(f.readPtrs[i], 0)
			c.ExitRO(f.readPtrs[i])
			if int(rp) > int(wp)-f.depth {
				break
			}
			c.Compute(8)
		}
	}
	c.Fence()
	slot := f.buf[int(wp)%f.depth]
	c.EntryX(slot)
	c.WriteBlock(slot, 0, data) // one ranged write moves the payload
	c.ExitX(slot)
	c.Fence()
	c.Write32(f.writePtr, 0, wp+1)
	c.Flush(f.writePtr)
	c.ExitX(f.writePtr)
}

// Pop is Fig. 9's pop() for reader me.
func (f *Fifo) Pop(c *rt.Ctx, me int) []uint32 {
	c.EntryRO(f.readPtrs[me])
	rp := c.Read32(f.readPtrs[me], 0)
	c.ExitRO(f.readPtrs[me])
	// Wait until data is written.
	for {
		c.EntryRO(f.writePtr)
		wp := c.Read32(f.writePtr, 0)
		c.ExitRO(f.writePtr)
		if wp > rp {
			break
		}
		c.Compute(8)
	}
	c.Fence()
	slot := f.buf[int(rp)%f.depth]
	data := make([]uint32, f.elemWords)
	c.EntryX(slot)
	c.ReadBlock(slot, 0, data) // one ranged read drains the payload
	c.ExitX(slot)
	c.Fence()
	c.EntryX(f.readPtrs[me])
	c.Write32(f.readPtrs[me], 0, rp+1)
	c.Flush(f.readPtrs[me])
	c.ExitX(f.readPtrs[me])
	return data
}

// MFifo is the Fig. 9 FIFO exercised as a workload: Writers producer tiles
// push Items elements each, Readers consumer tiles each receive the whole
// stream.
type MFifo struct {
	// Depth is the buffer depth N.
	Depth int
	// ElemWords is the element payload size in words.
	ElemWords int
	// Readers and Writers are the worker role counts; tiles beyond
	// Readers+Writers idle.
	Readers, Writers int
	// Items is the number of elements each writer pushes.
	Items int

	fifo     *Fifo
	received *rt.Object // per-reader fold of received payloads
}

// DefaultMFifo returns the evaluation configuration.
func DefaultMFifo() *MFifo {
	return &MFifo{Depth: 4, ElemWords: 4, Readers: 2, Writers: 2, Items: 32}
}

// Name implements App.
func (a *MFifo) Name() string { return "mfifo" }

// Setup implements App.
func (a *MFifo) Setup(r *rt.Runtime, tiles int) {
	if a.Readers+a.Writers > tiles {
		panic(fmt.Sprintf("mfifo: %d readers + %d writers > %d tiles", a.Readers, a.Writers, tiles))
	}
	a.fifo = NewFifo(r, "fifo", a.Depth, a.ElemWords, a.Readers)
	a.received = r.Alloc("received", 8*a.Readers)
}

// Worker implements App: tiles [0,Writers) push, tiles [Writers,
// Writers+Readers) pop; the rest idle.
func (a *MFifo) Worker(c *rt.Ctx, tile, tiles int) {
	c.SetCodeFootprint(2 * 1024)
	total := a.Writers * a.Items
	switch {
	case tile < a.Writers:
		for i := 0; i < a.Items; i++ {
			item := uint32(tile)<<16 | uint32(i)
			data := make([]uint32, a.ElemWords)
			for w := range data {
				data[w] = item + uint32(w)*0x01000193
			}
			a.fifo.Push(c, data)
			c.Compute(50)
		}
	case tile < a.Writers+a.Readers:
		me := tile - a.Writers
		// Two digests: the ordered fold proves all readers observed
		// the same interleaving (FIFO order); the commutative sum of
		// per-item hashes is timing-independent, so it also matches
		// across backends, whose lock timings interleave the writers
		// differently.
		var ordered, content uint32
		for i := 0; i < total; i++ {
			data := a.fifo.Pop(c, me)
			var item uint32
			for _, v := range data {
				item = item*16777619 + v
			}
			ordered = ordered*31 + item
			content += item
			c.Compute(30)
		}
		c.EntryX(a.received)
		c.Write32(a.received, 8*me, ordered)
		c.Write32(a.received, 8*me+4, content)
		c.ExitX(a.received)
	}
}

// Checksum implements App: the order-independent content digest (identical
// across backends and readers).
func (a *MFifo) Checksum(r *rt.Runtime) uint32 {
	return r.ReadObjectWord(a.received, 1)
}
