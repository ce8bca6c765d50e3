package cache

import (
	"sync"
	"testing"
	"testing/quick"

	"pmc/internal/mem"
)

func newTestCache(t *testing.T, cfg Config) (*Cache, *mem.RAM) {
	t.Helper()
	ram := mem.NewRAM(0, 1<<16)
	return New(cfg, ram), ram
}

func small() Config { return Config{Size: 256, Ways: 2, LineSize: 32} }

func TestConfigValidation(t *testing.T) {
	good := []Config{
		{Size: 256, Ways: 2, LineSize: 32},
		{Size: 4096, Ways: 1, LineSize: 32},
		{Size: 8192, Ways: 4, LineSize: 16},
	}
	for _, c := range good {
		if err := c.Valid(); err != nil {
			t.Errorf("%+v should be valid: %v", c, err)
		}
	}
	bad := []Config{
		{Size: 100, Ways: 2, LineSize: 32}, // size not divisible
		{Size: 256, Ways: 0, LineSize: 32},
		{Size: 256, Ways: 2, LineSize: 24},     // line not power of two
		{Size: 96 * 32, Ways: 1, LineSize: 32}, // sets not power of two
		{Size: 64, Ways: 1, LineSize: 2},       // line shorter than a word
	}
	for _, c := range bad {
		if err := c.Valid(); err == nil {
			t.Errorf("%+v should be invalid", c)
		}
	}
}

func TestReadMissFillsFromBacking(t *testing.T) {
	c, ram := newTestCache(t, small())
	ram.Write32(0x40, 1234)
	v, tr := c.Read32(0x40)
	if v != 1234 || !tr.Fill || tr.Writeback {
		t.Fatalf("read = %d traffic=%+v, want 1234 fill-only", v, tr)
	}
	v, tr = c.Read32(0x44) // same line: hit
	if tr.Fill {
		t.Fatal("second read on same line should hit")
	}
	_ = v
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteBackOnlyOnFlushOrEvict(t *testing.T) {
	c, ram := newTestCache(t, small())
	c.Write32(0x80, 99)
	if ram.Read32(0x80) != 0 {
		t.Fatal("write-back cache wrote through to backing store")
	}
	tr := c.FlushLine(0x80)
	if !tr.Writeback {
		t.Fatal("flush of dirty line should write back")
	}
	if ram.Read32(0x80) != 99 {
		t.Fatal("flush did not deposit data in backing store")
	}
	if res, _ := c.Probe(0x80); res {
		t.Fatal("flush should invalidate the line")
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	// Direct-mapped, 2 sets of 32B: addresses 0x00 and 0x40 collide.
	c, ram := newTestCache(t, Config{Size: 64, Ways: 1, LineSize: 32})
	c.Write32(0x00, 11)
	_, tr := c.Read32(0x40) // evicts dirty line 0x00
	if !tr.Writeback || !tr.Fill {
		t.Fatalf("conflict fill traffic = %+v, want writeback+fill", tr)
	}
	if ram.Read32(0x00) != 11 {
		t.Fatal("victim writeback lost")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way, 1 set: three distinct lines rotate.
	c, _ := newTestCache(t, Config{Size: 64, Ways: 2, LineSize: 32})
	c.Read32(0x000) // A
	c.Read32(0x100) // B
	c.Read32(0x000) // touch A: B is now LRU
	c.Read32(0x200) // C evicts B
	if res, _ := c.Probe(0x000); !res {
		t.Fatal("A should be resident")
	}
	if res, _ := c.Probe(0x100); res {
		t.Fatal("B should have been evicted (LRU)")
	}
	if res, _ := c.Probe(0x200); !res {
		t.Fatal("C should be resident")
	}
}

func TestFlushAll(t *testing.T) {
	c, ram := newTestCache(t, small())
	c.Write32(0x00, 1)
	c.Write32(0x20, 2)
	c.Read32(0x40)
	wbs := c.FlushAll()
	if wbs != 2 {
		t.Fatalf("FlushAll writebacks = %d, want 2", wbs)
	}
	if ram.Read32(0x00) != 1 || ram.Read32(0x20) != 2 {
		t.Fatal("FlushAll lost dirty data")
	}
	for _, a := range []mem.Addr{0x00, 0x20, 0x40} {
		if res, _ := c.Probe(a); res {
			t.Fatalf("line %#x still resident after FlushAll", a)
		}
	}
}

func TestStalenessIsObservable(t *testing.T) {
	// Two caches over one RAM: this is the incoherence the PMC runtime
	// must manage. Without flushes, cache B reads stale data.
	ram := mem.NewRAM(0, 4096)
	a := New(small(), ram)
	b := New(small(), ram)
	ram.Write32(0x40, 1)
	b.Read32(0x40) // B caches old value
	a.Write32(0x40, 2)
	a.FlushLine(0x40) // A publishes
	if v, _ := b.Read32(0x40); v != 1 {
		t.Fatalf("B should still see stale 1, got %d", v)
	}
	b.FlushLine(0x40) // B invalidates its clean line (entry protocol)
	if v, _ := b.Read32(0x40); v != 2 {
		t.Fatalf("after invalidate B should see 2, got %d", v)
	}
}

// Property: under any access pattern followed by FlushAll, the backing
// store equals what a plain RAM would hold after the same writes (the cache
// never loses or reorders committed data).
func TestCacheEquivalenceProperty(t *testing.T) {
	type op struct {
		Write bool
		Slot  uint8
		Val   uint32
	}
	prop := func(ops []op) bool {
		ram := mem.NewRAM(0, 8192)
		ref := mem.NewRAM(0, 8192)
		c := New(Config{Size: 128, Ways: 2, LineSize: 16}, ram) // tiny: lots of evictions
		for _, o := range ops {
			addr := mem.Addr(o.Slot) * 4
			if o.Write {
				c.Write32(addr, o.Val)
				ref.Write32(addr, o.Val)
			} else {
				got, _ := c.Read32(addr)
				if got != ref.Read32(addr) {
					return false
				}
			}
		}
		c.FlushAll()
		for s := 0; s < 256; s++ {
			a := mem.Addr(s) * 4
			if ram.Read32(a) != ref.Read32(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Probe never disturbs LRU or contents.
func TestProbeIsPure(t *testing.T) {
	prop := func(slots []uint8) bool {
		ram := mem.NewRAM(0, 8192)
		c := New(Config{Size: 128, Ways: 2, LineSize: 16}, ram)
		for _, s := range slots {
			c.Read32(mem.Addr(s) * 4)
		}
		before := c.Stats()
		for s := 0; s < 256; s++ {
			c.Probe(mem.Addr(s) * 4)
		}
		after := c.Stats()
		return before == after
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Install is Read32's miss path minus the data. Two caches see
// the same random fetch stream with eviction-heavy geometry; the oracle
// installs a missing line with Read32 (a data fill), the other with
// Install. Direct steps call Read32/Install without the Probe, covering
// the hit path too. After every step the counters and the residency of
// every line of the stream must agree.
func TestInstallMatchesReadMiss(t *testing.T) {
	type step struct {
		Slot   uint8
		Direct bool
	}
	cfg := Config{Size: 128, Ways: 2, LineSize: 16}
	prop := func(steps []step) bool {
		oracle := New(cfg, mem.NewRAM(0, 1<<16))
		lean := New(cfg, mem.NewRAM(0, 1<<16))
		for _, s := range steps {
			a := mem.Addr(s.Slot) * mem.Addr(cfg.LineSize)
			if res, _ := oracle.Probe(a); !res || s.Direct {
				oracle.Read32(a)
			}
			if res, _ := lean.Probe(a); !res || s.Direct {
				lean.Install(a)
			}
			if oracle.Stats() != lean.Stats() {
				return false
			}
			for _, o := range steps {
				b := mem.Addr(o.Slot) * mem.Addr(cfg.LineSize)
				r1, d1 := oracle.Probe(b)
				r2, d2 := lean.Probe(b)
				if r1 != r2 || d1 != d2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A cache either fetches (Install, tags only) or moves data, never both:
// each side refuses the other's operations, so a tag-only line can never
// be read back as zeros.
func TestInstallAndDataPathsDoNotMix(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	data, _ := newTestCache(t, small())
	data.Read32(0x40)
	mustPanic("Install after a fill", func() { data.Install(0x80) })

	fetch, _ := newTestCache(t, small())
	fetch.Install(0x40)
	mustPanic("Read32 hit", func() { fetch.Read32(0x40) })
	mustPanic("Read32 miss", func() { fetch.Read32(0x80) })
	mustPanic("Write32", func() { fetch.Write32(0x80, 1) })
	mustPanic("FillRange", func() { fetch.FillRange(0x80, 4) })
	mustPanic("ReadRange32", func() { fetch.ReadRange32(0x40, make([]uint32, 1)) })
	mustPanic("WriteLineFull", func() { fetch.WriteLineFull(0x80, make([]byte, 32)) })
	if res, _ := fetch.Probe(0x80); res {
		t.Fatal("a refused data access changed residency")
	}
	// Control operations need no data on a tag-only cache.
	if wbs := fetch.FlushAll(); wbs != 0 {
		t.Fatalf("FlushAll of a tag-only cache wrote back %d lines", wbs)
	}
	if res, _ := fetch.Probe(0x40); res {
		t.Fatal("FlushAll left a tag-only line resident")
	}
}

// The data slab is allocated by the first fill: control operations on a
// never-filled cache leave it unallocated, and a fetch cache never
// allocates at all.
func TestDataSlabAllocatedOnFirstFill(t *testing.T) {
	c, ram := newTestCache(t, small())
	c.Probe(0x40)
	c.FlushLine(0x40)
	if wbs := c.FlushAll(); wbs != 0 || c.data != nil {
		t.Fatalf("never-filled cache: FlushAll = %d, slab allocated %v", wbs, c.data != nil)
	}
	ram.Write32(0x44, 5)
	if v, _ := c.Read32(0x44); v != 5 || c.data == nil {
		t.Fatalf("first fill read %d, slab allocated %v", v, c.data != nil)
	}

	fetch, _ := newTestCache(t, small())
	a := mem.Addr(0)
	if n := testing.AllocsPerRun(100, func() {
		fetch.Install(a)
		a += 32
	}); n != 0 {
		t.Fatalf("Install allocates %v times per call, want 0", n)
	}
	if fetch.data != nil {
		t.Fatal("a fetch cache allocated a data slab")
	}
}

func BenchmarkAccess(b *testing.B) {
	ram := mem.NewRAM(0, 1<<20)
	c := New(Config{Size: 8192, Ways: 2, LineSize: 32}, ram)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read32(mem.Addr(i*4) % (1 << 19))
	}
}

// A cache owns a tag array only from its first fill or Install; until
// then it reads the shared invalid lines, which no operation on any cache
// may write. The caches run on goroutines of their own, so under the race
// detector a write to the shared lines also shows as a race.
func TestUntouchedCachesShareInvalidTags(t *testing.T) {
	cfgs := []Config{small(), {Size: 4096, Ways: 2, LineSize: 32}, {Size: 8192, Ways: 4, LineSize: 16}}
	ram := mem.NewRAM(0, 1<<16)
	if n := testing.AllocsPerRun(100, func() { New(cfgs[2], ram) }); n != 1 {
		t.Fatalf("New allocates %v times, want 1 (the cache header only)", n)
	}
	const caches = 48
	cs := make([]*Cache, caches)
	for i := range cs {
		cs[i] = New(cfgs[i%len(cfgs)], mem.NewRAM(0, 1<<16))
	}
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := mem.Addr(i * 64)
			ls := c.cfg.LineSize
			switch i % 6 {
			case 0: // data paths
				c.Read32(a)
				c.Write32(a+4, 1)
				c.FlushLine(a)
				c.FlushAll()
			case 1: // fetch path
				c.Install(a)
				c.Install(a + mem.Addr(c.cfg.Size))
				c.FlushLine(a)
				c.FlushAll()
			case 2: // range paths
				c.WriteLineFull(c.LineBase(a), make([]byte, ls))
				c.FillRange(a, 4*ls)
				c.WriteRange32(a, []uint32{1, 2})
				c.FlushAll()
			case 3: // control and range paths that find nothing resident
				c.Probe(a)
				c.FlushLine(a)
				c.FlushAll()
				c.ReadRange32(a, make([]uint32, 2))
				c.WriteRange32(a, []uint32{1, 2})
			}
		}()
	}
	wg.Wait()
	for i, l := range invalid.lines {
		if l != (line{}) {
			t.Fatalf("shared invalid line %d was written: %+v", i, l)
		}
	}
	for i, c := range cs {
		if touched := i%6 < 3; touched != c.owns() {
			t.Errorf("cache %d: owns a tag array %v, want %v", i, c.owns(), touched)
		}
		if i%6 < 3 {
			continue
		}
		for a := mem.Addr(0); a < 1<<16; a += mem.Addr(c.cfg.LineSize) {
			if res, _ := c.Probe(a); res {
				t.Fatalf("untouched cache %d reports %#x resident", i, a)
			}
		}
	}
}
