// Package mem models the physical memories of the simulated SoC: the
// off-chip SDRAM shared by all tiles behind an arbitrated bus, and the
// per-tile dual-port local memories reachable at single-cycle latency from
// the owning core and writable by the network-on-chip.
//
// All memories are byte-addressable and store real data: the simulated
// software computes real results through them, so coherence bugs (stale
// cache lines, lost writebacks, missing NoC updates) corrupt observable
// output instead of hiding in abstract counters. Words are little-endian.
package mem

import (
	"encoding/binary"
	"fmt"

	"pmc/internal/recycle"
	"pmc/internal/sim"
)

// Addr is a simulated physical address.
type Addr uint32

// RAM chunk geometry: backing memory materializes in 4 KiB chunks on
// first write, and the chunk directory grows with the highest chunk
// written. A simulated system declares tens of megabytes of SDRAM (and
// 64 KiB locals per tile) but a run touches a small fraction: a litmus
// run writes a few words near the bottom of each memory, so it pays for
// a directory of a few entries and one small chunk per region written,
// not for zeroing (and GC'ing) the untouched remainder or a directory
// entry per chunk of the declared size.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// maxFreeChunks bounds the free list of chunks that recycled RAMs hand
// to later ones: a checked litmus run writes a few dozen chunks at most.
const maxFreeChunks = 64

var freeChunks = recycle.New[[]byte](maxFreeChunks)

// RAM is a byte-addressable backing store covering [Base, Base+Size).
// Never-written bytes read as zero, exactly as an eagerly zeroed array
// would — or, for a RAM made by Seed.NewRAM, as the seed image's bytes.
// The zero value is unusable; use NewRAM.
type RAM struct {
	base Addr
	size int
	// chunks holds the materialized chunks; an index past its end, like
	// a nil entry, is a chunk never written.
	chunks [][]byte
	// seed is the image a never-written chunk reads from (nil: zeros).
	seed *RAM
	// recycled is set by Recycle; every later access panics.
	recycled bool
}

// NewRAM returns a RAM of the given size starting at base.
func NewRAM(base Addr, size int) *RAM {
	return &RAM{base: base, size: size}
}

// Contains reports whether [addr, addr+n) lies inside the RAM.
func (r *RAM) Contains(addr Addr, n int) bool {
	off := int64(addr) - int64(r.base)
	return off >= 0 && off+int64(n) <= int64(r.size)
}

func (r *RAM) index(addr Addr, n int) int {
	if !r.Contains(addr, n) {
		if r.recycled {
			panic(fmt.Sprintf("mem: access to %#x in a recycled RAM", addr))
		}
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside RAM [%#x,+%d)", addr, n, r.base, r.size))
	}
	return int(addr - r.base)
}

// writable returns the chunk backing offset off, materializing it on first
// write as a copy of the seed's chunk (or zeros).
func (r *RAM) writable(off int) []byte {
	ci := off >> chunkBits
	if ci >= len(r.chunks) {
		r.chunks = append(r.chunks, make([][]byte, ci+1-len(r.chunks))...)
	}
	c := r.chunks[ci]
	if c == nil {
		c = newChunk(r.seedChunk(ci))
		r.chunks[ci] = c
	}
	return c
}

// newChunk returns a chunk holding a copy of seed, or zeros for a nil
// seed: a recycled chunk when the free list has one, else a new one.
func newChunk(seed []byte) []byte {
	c, ok := freeChunks.Get(0)
	if !ok {
		c = make([]byte, chunkSize)
	} else if seed == nil {
		clear(c)
	}
	copy(c, seed)
	return c
}

// Recycle hands the RAM's chunks to the RAMs made after it. The RAM must
// not be used again: every later access panics. Recycling it again does
// nothing, since it no longer holds a chunk.
func (r *RAM) Recycle() {
	for _, c := range r.chunks {
		if c != nil {
			freeChunks.Put(0, c)
		}
	}
	r.chunks, r.seed = nil, nil
	r.size = 0
	r.recycled = true
}

// chunk returns the RAM's own chunk ci, or nil if it was never written.
func (r *RAM) chunk(ci int) []byte {
	if ci < len(r.chunks) {
		return r.chunks[ci]
	}
	return nil
}

// readable returns the chunk offset off reads from: the RAM's own, else
// the seed's, else nil (zeros).
func (r *RAM) readable(off int) []byte {
	ci := off >> chunkBits
	if c := r.chunk(ci); c != nil {
		return c
	}
	return r.seedChunk(ci)
}

// seedChunk returns the seed's chunk ci, or nil.
func (r *RAM) seedChunk(ci int) []byte {
	if r.seed == nil {
		return nil
	}
	return r.seed.chunk(ci)
}

// Read32 returns the little-endian word at addr.
func (r *RAM) Read32(addr Addr) uint32 {
	off := r.index(addr, 4)
	if co := off & chunkMask; co <= chunkSize-4 {
		c := r.readable(off)
		if c == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(c[co:])
	}
	var b [4]byte
	r.read(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores a little-endian word at addr.
func (r *RAM) Write32(addr Addr, v uint32) {
	off := r.index(addr, 4)
	if co := off & chunkMask; co <= chunkSize-4 {
		binary.LittleEndian.PutUint32(r.writable(off)[co:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	r.write(off, b[:])
}

// read copies from offset off into dst, crossing chunks as needed.
func (r *RAM) read(off int, dst []byte) {
	for len(dst) > 0 {
		co := off & chunkMask
		n := chunkSize - co
		if n > len(dst) {
			n = len(dst)
		}
		if c := r.readable(off); c != nil {
			copy(dst[:n], c[co:])
		} else {
			clear(dst[:n])
		}
		off += n
		dst = dst[n:]
	}
}

// write copies src to offset off, crossing chunks as needed.
func (r *RAM) write(off int, src []byte) {
	for len(src) > 0 {
		co := off & chunkMask
		n := chunkSize - co
		if n > len(src) {
			n = len(src)
		}
		copy(r.writable(off)[co:co+n], src[:n])
		off += n
		src = src[n:]
	}
}

// writeOwned copies src to offset off, but only into chunks the RAM has
// already materialized: the rest keep reading from the seed.
func (r *RAM) writeOwned(off int, src []byte) {
	for len(src) > 0 {
		co := off & chunkMask
		n := min(chunkSize-co, len(src))
		if c := r.chunk(off >> chunkBits); c != nil {
			copy(c[co:co+n], src[:n])
		}
		off += n
		src = src[n:]
	}
}

// ReadBlock copies len(dst) bytes starting at addr into dst.
func (r *RAM) ReadBlock(addr Addr, dst []byte) {
	r.read(r.index(addr, len(dst)), dst)
}

// WriteBlock copies src into the RAM starting at addr.
func (r *RAM) WriteBlock(addr Addr, src []byte) {
	r.write(r.index(addr, len(src)), src)
}

// Seed is an image shared by a set of equally sized RAMs, such as the
// unit memories of one memory level that all hold the same replicas. A
// RAM of the seed reads every chunk it has never written from the image;
// its first write to a chunk copies the image's chunk, so a RAM's writes
// never reach the image or the other RAMs. Writing the seed writes every
// RAM of it at the cost of one image write plus the chunks RAMs already
// own, and RAMs that never write a region share one copy of it.
type Seed struct {
	img  *RAM
	rams []*RAM
}

// NewSeed returns an all-zero seed for RAMs of size bytes.
func NewSeed(size int) *Seed {
	return &Seed{img: NewRAM(0, size)}
}

// NewRAM returns a RAM of the seed's size at base that reads as the seed.
func (s *Seed) NewRAM(base Addr) *RAM {
	r := NewRAM(base, s.img.size)
	r.seed = s.img
	s.rams = append(s.rams, r)
	return r
}

// WriteBlock writes src at byte offset off of every RAM of the seed, as
// if by one WriteBlock on each.
func (s *Seed) WriteBlock(off Addr, src []byte) {
	o := s.img.index(off, len(src))
	s.img.write(o, src)
	for _, r := range s.rams {
		r.writeOwned(o, src)
	}
}

// Recycle recycles the seed's image and every RAM made from it (see
// RAM.Recycle).
func (s *Seed) Recycle() {
	s.img.Recycle()
	for _, r := range s.rams {
		r.Recycle()
	}
}

// Block is an interface for data-level line/block movement, implemented by
// RAM-backed devices. Timing is charged separately by the caller.
type Block interface {
	ReadBlock(addr Addr, dst []byte)
	WriteBlock(addr Addr, src []byte)
}

// SDRAM is the shared background memory: a RAM behind a banked, pipelined
// controller. Bank and channel queueing show up as stall time for the
// requesting core.
type SDRAM struct {
	*RAM
	channel sim.Resource
	banks   [Banks]sim.Resource

	// Stats.
	WordReads  uint64
	WordWrites uint64
	LineFills  uint64
	LineWBs    uint64
}

// NewSDRAM returns an SDRAM of the given size at base address base.
func NewSDRAM(base Addr, size int) *SDRAM {
	return &SDRAM{RAM: NewRAM(base, size)}
}

// ReadWord performs a timed uncached word read on behalf of p, blocking for
// queueing plus service, and returns the value and total stall cycles.
func (s *SDRAM) ReadWord(p *sim.Proc, addr Addr) (v uint32, stall sim.Time) {
	stall = s.AccessWord(p, addr)
	s.WordReads++
	return s.Read32(addr), stall
}

// WriteWord performs a timed uncached word write on behalf of p.
func (s *SDRAM) WriteWord(p *sim.Proc, addr Addr, v uint32) (stall sim.Time) {
	stall = s.AccessWord(p, addr)
	s.WordWrites++
	s.Write32(addr, v)
	return stall
}

// ReserveLineWB books bus time for a line writeback whose data has already
// been deposited in the RAM (caches write their backing store directly);
// only the timing and the counter remain. It returns when the slot ends.
func (s *SDRAM) ReserveLineWB(t sim.Time, addr Addr) (end sim.Time) {
	end = s.ReserveLineAt(t, addr)
	s.LineWBs++
	return end
}

// TestAndSet32 performs an atomic test-and-set on a word: it reads the old
// value and, if zero, writes v, all within one bus slot. Because bus slots
// are disjoint and data moves at the end of the requester's slot, two
// concurrent TAS operations serialize in bus-grant order, which gives the
// atomicity a hardware exclusive bus transaction provides. This is the
// primitive of the centralized-lock baseline.
func (s *SDRAM) TestAndSet32(p *sim.Proc, addr Addr, v uint32) (old uint32, stall sim.Time) {
	stall = s.AccessWord(p, addr)
	s.WordReads++
	old = s.Read32(addr)
	if old == 0 {
		s.WordWrites++
		s.Write32(addr, v)
	}
	return old, stall
}

// Local is a tile's dual-port local memory: the owning core reads and
// writes it in a single cycle; the NoC delivers remote writes through the
// second port without stalling the core.
type Local struct {
	*RAM
	Tile int

	// Stats.
	CoreReads  uint64
	CoreWrites uint64
	NoCWrites  uint64
}

// NoCWriteBlock applies a block write arriving over the NoC port. It is
// untimed here; delivery timing is the NoC's job.
func (l *Local) NoCWriteBlock(addr Addr, src []byte) {
	l.NoCWrites++
	l.WriteBlock(addr, src)
}
