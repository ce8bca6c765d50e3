// Package cache models the non-coherent write-back caches of the simulated
// SoC. A cache holds real copies of backing-store data, so stale lines and
// lost writebacks corrupt the simulated program's results — exactly the
// failure mode the PMC annotations exist to prevent — rather than being
// abstracted into counters.
//
// Mirroring the MicroBlaze data cache the paper targets, the only control
// operations are per-line invalidate (discard, even if dirty) and
// flush-and-invalidate (write back if dirty, then discard). There is no way
// to reconcile a dirty line while keeping it resident; Section V-B of the
// paper calls this restriction out and the SWCC protocol is designed around
// it.
//
// A cache is used in one of two ways, never both. A data cache (the
// D-cache) moves real bytes through Read32, Write32, the range operations
// and the fills behind them; its tag array and line-data slab are
// allocated together by the first fill. A fetch cache (the I-cache) keeps
// tags only: Install makes a line resident without moving data, since the
// simulated cores fetch no instruction bytes, and its first Install
// allocates the tag array. Until then a cache reads a shared array of
// invalid lines, so a cache its run never touches costs only its header.
//
// The cache is a pure data/state machine: methods report what bus traffic an
// access implies (miss fill, victim writeback) and move data to/from the
// backing store, but charge no simulated time. The tile (internal/soc) is
// responsible for timing.
package cache

import (
	"encoding/binary"
	"fmt"
	"sync"

	"pmc/internal/mem"
	"pmc/internal/recycle"
)

// Config describes a cache's geometry.
type Config struct {
	Size     int // total bytes
	Ways     int // associativity; 1 = direct-mapped
	LineSize int // bytes per line (power of two, at least one 4-byte word)
}

// Valid reports whether the geometry is internally consistent.
func (c Config) Valid() error {
	switch {
	case c.LineSize < 4 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two of at least one word", c.LineSize)
	case c.Ways <= 0:
		return fmt.Errorf("cache: ways %d", c.Ways)
	case c.Size <= 0 || c.Size%(c.LineSize*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*line", c.Size)
	}
	sets := c.Size / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Size / (c.LineSize * c.Ways) }

type line struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

// Stats counts cache events since construction.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Writebacks  uint64 // dirty victims + dirty flushes
	Invalidated uint64 // lines dropped by control ops
}

// Cache is a set-associative write-back, write-allocate cache in front of a
// backing store.
type Cache struct {
	cfg     Config
	backing mem.Block
	// lines holds every way: set i is lines[i*Ways : (i+1)*Ways]. Until
	// the cache owns its tags (see owns) it is a prefix of the shared
	// invalid array, which only ever gets read.
	lines []line
	// data is the line-data slab, way i's bytes at [i*LineSize,
	// (i+1)*LineSize). It stays nil until the first fill.
	data []byte
	// tagOnly is set by the first Install; such a cache never moves data.
	tagOnly bool
	// recycled is set by Recycle: the cache reads the shared invalid
	// lines again, and every path that would own tags panics.
	recycled bool
	tick     uint64
	stats    Stats

	lineMask uint32
	setShift uint32
	setMask  uint32
}

// invalid is the tag array of every cache that owns none yet: all lines
// invalid, never written, grown (by replacement, so no reader sees a
// write) to the largest cache built so far.
var invalid struct {
	mu    sync.Mutex
	lines []line
}

// invalidLines returns n invalid lines from the shared array.
func invalidLines(n int) []line {
	invalid.mu.Lock()
	defer invalid.mu.Unlock()
	if len(invalid.lines) < n {
		invalid.lines = make([]line, n)
	}
	return invalid.lines[:n:n]
}

// maxFreeArrays bounds each free list of tag arrays and data slabs that
// recycled caches hand to later ones, per array length (the I-cache's
// and the D-cache's tag arrays differ in length).
const maxFreeArrays = 16

var (
	freeTags  = recycle.New[[]line](maxFreeArrays)
	freeSlabs = recycle.New[[]byte](maxFreeArrays)
)

// ownLines returns n invalid lines the cache owns: a recycled tag array,
// cleared, or a new one.
func ownLines(n int) []line {
	if l, ok := freeTags.Get(n); ok {
		clear(l)
		return l
	}
	return make([]line, n)
}

// newSlab returns n zero bytes of line data: a recycled slab, cleared,
// or a new one.
func newSlab(n int) []byte {
	if d, ok := freeSlabs.Get(n); ok {
		clear(d)
		return d
	}
	return make([]byte, n)
}

// Recycle hands the cache's tag array and data slab to the caches made
// after it. The cache must not be used again: a data access, Install or
// FlushAll panics. Recycling it again does nothing, since it no longer
// owns tags or data.
func (c *Cache) Recycle() {
	if c.owns() {
		freeTags.Put(len(c.lines), c.lines)
		c.lines = invalidLines(len(c.lines))
	}
	if c.data != nil {
		freeSlabs.Put(len(c.data), c.data)
		c.data = nil
	}
	c.tagOnly = false
	c.recycled = true
}

// New returns an empty cache over the given backing store.
func New(cfg Config, backing mem.Block) *Cache {
	if err := cfg.Valid(); err != nil {
		panic(err)
	}
	// No tags and no line data of its own yet: a system builds two caches
	// per tile and most caches of a large system are never used, so the
	// tag array comes with the first fill (slab) or Install. Until then
	// every lookup misses in the shared invalid lines, and lookup needs
	// no nil check.
	setShift := uint32(0)
	for 1<<setShift < cfg.LineSize {
		setShift++
	}
	return &Cache{
		cfg:      cfg,
		backing:  backing,
		lines:    invalidLines(cfg.Sets() * cfg.Ways),
		lineMask: uint32(cfg.LineSize - 1),
		setShift: setShift,
		setMask:  uint32(cfg.Sets() - 1),
	}
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineBase returns the line-aligned base of addr.
func (c *Cache) LineBase(addr mem.Addr) mem.Addr {
	return addr &^ mem.Addr(c.lineMask)
}

func (c *Cache) setIndex(addr mem.Addr) uint32 {
	return (uint32(addr) >> c.setShift) & c.setMask
}

func (c *Cache) tag(addr mem.Addr) uint32 {
	return uint32(addr) >> c.setShift
}

// set returns the index of addr's set's first way and the set's lines.
func (c *Cache) set(addr mem.Addr) (int, []line) {
	first := int(c.setIndex(addr)) * c.cfg.Ways
	return first, c.lines[first : first+c.cfg.Ways]
}

// lookup returns the way index of addr's resident line, or -1.
func (c *Cache) lookup(addr mem.Addr) int {
	first, set := c.set(addr)
	tag := c.tag(addr)
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return first + w
		}
	}
	return -1
}

// owns reports whether the cache has a tag array of its own. Every path
// that writes a tag gets there through slab or Install, which allocate
// it; the shared invalid lines are only read.
func (c *Cache) owns() bool { return c.data != nil || c.tagOnly }

// slab returns the line-data slab, allocating it and the cache's own tag
// array on first use. A cache that has installed tag-only lines holds no
// data to move.
func (c *Cache) slab() []byte {
	if c.data == nil {
		if c.tagOnly {
			panic("cache: data access on a tag-only cache (Install was used)")
		}
		c.checkLive()
		c.lines = ownLines(len(c.lines))
		c.data = newSlab(len(c.lines) * c.cfg.LineSize)
	}
	return c.data
}

// checkLive panics on a recycled cache.
func (c *Cache) checkLive() {
	if c.recycled {
		panic("cache: use of a recycled cache")
	}
}

// lineData returns way i's bytes.
func (c *Cache) lineData(i int) []byte {
	ls := c.cfg.LineSize
	return c.slab()[i*ls : (i+1)*ls : (i+1)*ls]
}

// word returns the little-endian word at addr inside way i.
func (c *Cache) word(i int, addr mem.Addr) uint32 {
	return binary.LittleEndian.Uint32(c.lineData(i)[uint32(addr)&c.lineMask:])
}

// setWord stores the little-endian word v at addr inside way i.
func (c *Cache) setWord(i int, addr mem.Addr, v uint32) {
	binary.LittleEndian.PutUint32(c.lineData(i)[uint32(addr)&c.lineMask:], v)
}

// Traffic describes the bus transactions an access caused. Fill is true if
// a line was fetched from backing store; Writeback is true if a dirty
// victim (or flushed line) was written back first. The soc layer converts
// these into bus time.
type Traffic struct {
	Fill      bool
	Writeback bool
	// WritebackAddr is the written-back line's base address (valid when
	// Writeback is set); the memory model routes it to its bank.
	WritebackAddr mem.Addr
}

// victim picks the LRU way of addr's set, writing it back if dirty, and
// returns its index ready for (re)fill.
func (c *Cache) victim(addr mem.Addr) (int, Traffic) {
	first, set := c.set(addr)
	vw := -1
	for w := range set {
		if !set[w].valid {
			vw = w
			break
		}
		if vw < 0 || set[w].lru < set[vw].lru {
			vw = w
		}
	}
	vi := first + vw
	v := &set[vw]
	var tr Traffic
	if v.valid && v.dirty {
		tr.WritebackAddr = mem.Addr(v.tag << c.setShift)
		c.writebackLine(vi)
		tr.Writeback = true
	}
	if v.valid {
		c.stats.Invalidated++
	}
	v.valid = false
	v.dirty = false
	return vi, tr
}

func (c *Cache) writebackLine(i int) {
	base := mem.Addr(c.lines[i].tag << c.setShift)
	c.backing.WriteBlock(base, c.lineData(i))
	c.stats.Writebacks++
}

// install marks way i as holding addr's line, clean.
func (c *Cache) install(i int, addr mem.Addr) {
	l := &c.lines[i]
	l.tag = c.tag(addr)
	l.valid = true
	l.dirty = false
}

func (c *Cache) fill(addr mem.Addr) (int, Traffic) {
	c.slab() // a tag-only cache refuses before any state changes
	vi, tr := c.victim(addr)
	c.backing.ReadBlock(c.LineBase(addr), c.lineData(vi))
	c.install(vi, addr)
	tr.Fill = true
	c.stats.Fills++
	return vi, tr
}

func (c *Cache) touch(i int) {
	c.tick++
	c.lines[i].lru = c.tick
}

// Read32 reads the little-endian word at addr through the cache,
// allocating on miss.
func (c *Cache) Read32(addr mem.Addr) (v uint32, tr Traffic) {
	i := c.lookup(addr)
	if i < 0 {
		c.stats.Misses++
		i, tr = c.fill(addr)
	} else {
		c.stats.Hits++
	}
	c.touch(i)
	return c.word(i, addr), tr
}

// Install makes addr's line resident without moving any data: the
// tag-only miss install of a fetch cache. Victim choice, LRU update and
// the Hits/Misses/Fills/Invalidated counts are exactly those of Read32.
// A cache that uses Install never moves data: Install panics on a cache
// that holds a data slab, and the data paths panic once Install was used,
// so a tag-only line can never be read back as zeros.
func (c *Cache) Install(addr mem.Addr) {
	if c.data != nil {
		panic("cache: Install on a cache that holds data")
	}
	if !c.tagOnly {
		c.checkLive()
		c.lines = ownLines(len(c.lines))
		c.tagOnly = true
	}
	i := c.lookup(addr)
	if i < 0 {
		c.stats.Misses++
		i, _ = c.victim(addr) // tag-only lines are never dirty
		c.install(i, addr)
		c.stats.Fills++
	} else {
		c.stats.Hits++
	}
	c.touch(i)
}

// Write32 writes the word at addr through the cache (write-back,
// write-allocate): the line is fetched on miss and marked dirty.
func (c *Cache) Write32(addr mem.Addr, v uint32) (tr Traffic) {
	i := c.lookup(addr)
	if i < 0 {
		c.stats.Misses++
		i, tr = c.fill(addr)
	} else {
		c.stats.Hits++
	}
	c.touch(i)
	c.setWord(i, addr, v)
	c.lines[i].dirty = true
	return tr
}

// Probe reports whether addr's line is resident, without touching LRU state.
func (c *Cache) Probe(addr mem.Addr) (resident, dirty bool) {
	if i := c.lookup(addr); i >= 0 {
		return true, c.lines[i].dirty
	}
	return false, false
}

// FlushLine writes addr's line back if dirty and invalidates it. It
// reports the traffic (Writeback set if data moved). This is the
// MicroBlaze "wdc.flush" analogue.
func (c *Cache) FlushLine(addr mem.Addr) (tr Traffic) {
	i := c.lookup(addr)
	if i < 0 {
		return
	}
	l := &c.lines[i]
	if l.dirty {
		tr.WritebackAddr = mem.Addr(l.tag << c.setShift)
		c.writebackLine(i)
		tr.Writeback = true
	}
	l.valid = false
	l.dirty = false
	c.stats.Invalidated++
	return tr
}

// FillRange installs every missing line overlapping [addr, addr+size),
// reading line data from the backing store, and returns the number of
// lines filled plus the base addresses of any dirty victims that were
// written back first. Resident lines are left untouched (each touched
// line moves at most once per range). The caller charges the bus: one
// burst transaction for the fills, one writeback per victim.
func (c *Cache) FillRange(addr mem.Addr, size int) (fills int, wbs []mem.Addr) {
	if size <= 0 {
		return 0, nil
	}
	first := c.LineBase(addr)
	last := c.LineBase(addr + mem.Addr(size-1))
	for a := first; ; a += mem.Addr(c.cfg.LineSize) {
		if i := c.lookup(a); i >= 0 {
			c.stats.Hits++
			c.touch(i)
		} else {
			c.stats.Misses++
			i, tr := c.fill(a)
			c.touch(i)
			if tr.Writeback {
				wbs = append(wbs, tr.WritebackAddr)
			}
			fills++
		}
		if a == last {
			break
		}
	}
	return fills, wbs
}

// ReadRange32 copies len(dst) words starting at addr out of resident
// lines, without touching statistics or LRU state — the data phase of a
// DMA-style range read whose cache transactions (one per line) were
// already accounted by FillRange. It reports false without copying when
// any covered line is absent (a range so large it evicted its own head);
// the caller falls back to the per-word path.
func (c *Cache) ReadRange32(addr mem.Addr, dst []uint32) bool {
	for k := range dst {
		a := addr + mem.Addr(4*k)
		i := c.lookup(a)
		if i < 0 {
			return false
		}
		dst[k] = c.word(i, a)
	}
	return true
}

// WriteRange32 stores len(src) words starting at addr into resident
// lines, marking them dirty, without touching statistics or LRU state —
// the data phase of a DMA-style range write. It reports false before
// writing anything when any covered line is absent.
func (c *Cache) WriteRange32(addr mem.Addr, src []uint32) bool {
	for k := range src {
		if c.lookup(addr+mem.Addr(4*k)) < 0 {
			return false
		}
	}
	for k, v := range src {
		a := addr + mem.Addr(4*k)
		i := c.lookup(a)
		c.setWord(i, a, v)
		c.lines[i].dirty = true
	}
	return true
}

// WriteLineFull installs a whole line's worth of data dirty without
// fetching it from the backing store — the write-allocate fill is skipped
// because every byte is about to be overwritten (the classic full-line
// DMA-write optimization). src must be exactly one line and addr
// line-aligned. The returned traffic reports only the victim writeback, if
// any; there is never a fill.
func (c *Cache) WriteLineFull(addr mem.Addr, src []byte) (tr Traffic) {
	if len(src) != c.cfg.LineSize || addr != c.LineBase(addr) {
		panic(fmt.Sprintf("cache: WriteLineFull(%#x, %d bytes) not a full aligned line", addr, len(src)))
	}
	c.slab() // a tag-only cache refuses before any state changes
	i := c.lookup(addr)
	if i < 0 {
		c.stats.Misses++
		i, tr = c.victim(addr)
		c.install(i, addr)
	} else {
		c.stats.Hits++
	}
	c.touch(i)
	copy(c.lineData(i), src)
	c.lines[i].dirty = true
	return tr
}

// FlushAll flush-invalidates every resident line and returns the number of
// writebacks performed. A cache that owns no tags has no resident line
// and returns at once.
func (c *Cache) FlushAll() (writebacks int) {
	c.checkLive()
	if !c.owns() {
		return 0
	}
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if l.dirty {
			c.writebackLine(i)
			writebacks++
		}
		l.valid = false
		l.dirty = false
		c.stats.Invalidated++
	}
	return writebacks
}
