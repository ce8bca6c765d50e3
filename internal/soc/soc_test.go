package soc

import (
	"runtime"
	"testing"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/sim"
)

func testConfig(tiles int) Config {
	cfg := DefaultConfig()
	cfg.Tiles = tiles
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// The D-cache capacity must hold a power-of-two number of sets of
	// CacheWays lines.
	for _, size := range []int{0, -64, 96, 3 * 2 * mem.LineSize} {
		bad := DefaultConfig()
		bad.DCacheBytes = size
		if err := bad.Validate(); err == nil {
			t.Errorf("%d-byte D-cache not rejected", size)
		}
	}
}

func TestSystemTopology(t *testing.T) {
	// Fig. 7: n tiles with local memories, one SDRAM, a write-only NoC.
	s, err := New(testConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tiles) != 32 || len(s.Locals) != 32 {
		t.Fatalf("tiles=%d locals=%d, want 32", len(s.Tiles), len(s.Locals))
	}
	if s.Net.Config().Tiles != 32 {
		t.Fatal("NoC not sized to the tile count")
	}
	if s.DLock == nil {
		t.Fatal("default lock should be distributed")
	}
	// Local address map round-trips.
	for _, tile := range []int{0, 7, 31} {
		a := LocalAddr(tile, 0x40)
		tl, off := LocalOffset(a)
		if tl != tile || off != 0x40 {
			t.Fatalf("LocalOffset(LocalAddr(%d, 0x40)) = (%d, %#x)", tile, tl, off)
		}
	}
}

func TestExecWarmCodeRunsFromCache(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tile := s.Tiles[0]
	s.K.Spawn("core", func(p *sim.Proc) {
		tile.SetCodeFootprint(0x1000, 1024) // fits 4 KiB I-cache
		tile.Exec(p, 256*4)                 // several passes over the loop
		warmIStall := tile.Stats.IStall
		before := tile.Stats
		tile.Exec(p, 1024)
		if tile.Stats.IStall != warmIStall {
			t.Errorf("warm loop still missing: IStall %d -> %d", warmIStall, tile.Stats.IStall)
		}
		if got := tile.Stats.Busy - before.Busy; got != 1024 {
			t.Errorf("busy delta = %d, want 1024", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExecThrashingFootprintStalls(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tile := s.Tiles[0]
	s.K.Spawn("core", func(p *sim.Proc) {
		tile.SetCodeFootprint(0x1000, 8192) // 2x the 4 KiB direct-mapped I-cache
		tile.Exec(p, 8192/4*3)              // three passes: every line misses every pass
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tile.Stats.IStall == 0 {
		t.Fatal("thrashing footprint produced no I-stalls")
	}
	// Every pass misses all 256 lines; expect stalls to dominate busy.
	if tile.Stats.IStall < tile.Stats.Busy {
		t.Fatalf("IStall=%d Busy=%d: expected stall-dominated", tile.Stats.IStall, tile.Stats.Busy)
	}
}

func TestUncachedSharedReadCostsBusAccess(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tile := s.Tiles[0]
	s.SDRAM.Write32(0x4000, 99)
	s.K.Spawn("core", func(p *sim.Proc) {
		if v := tile.ReadShared32Uncached(p, 0x4000); v != 99 {
			t.Errorf("read %d, want 99", v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tile.Stats.SharedReadStall < mem.WordLat {
		t.Fatalf("shared read stall %d < word latency %d", tile.Stats.SharedReadStall, mem.WordLat)
	}
	if tile.Stats.SharedReads != 1 {
		t.Fatalf("SharedReads = %d", tile.Stats.SharedReads)
	}
}

func TestCachedSharedReadAmortizes(t *testing.T) {
	// Reading 8 words of one line: uncached pays 8 bus words, cached
	// pays one line fill. This asymmetry is the whole Fig. 8 story.
	run := func(cached bool) sim.Time {
		s, err := New(testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		tile := s.Tiles[0]
		s.K.Spawn("core", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				a := mem.Addr(0x4000 + 4*i)
				if cached {
					tile.ReadShared32Cached(p, a)
				} else {
					tile.ReadShared32Uncached(p, a)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return tile.Stats.SharedReadStall
	}
	unc, cch := run(false), run(true)
	if cch >= unc {
		t.Fatalf("cached stall %d not below uncached %d", cch, unc)
	}
}

func TestPostedUncachedWriteDoesNotBlockCore(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tile := s.Tiles[0]
	var elapsed sim.Time
	s.K.Spawn("core", func(p *sim.Proc) {
		tile.Exec(p, 32) // warm the I-cache so only the writes are measured
		t0 := p.Now()
		for i := 0; i < 4; i++ {
			tile.WriteShared32Uncached(p, mem.Addr(0x4000+4*i), uint32(i))
		}
		elapsed = p.Now() - t0
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 posted writes: ~2 cycles each (fetch+exec, store buffer), far
	// below 4 full bus transactions (32 cycles).
	if elapsed >= 4*mem.WordLat {
		t.Fatalf("posted writes took %d cycles, expected well under %d", elapsed, 4*mem.WordLat)
	}
	// But the data still lands.
	if got := s.SDRAM.Read32(0x400c); got != 3 {
		t.Fatalf("posted write lost: %d", got)
	}
}

func TestFlushSharedWritesBackAndCharges(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tile := s.Tiles[0]
	s.K.Spawn("core", func(p *sim.Proc) {
		tile.WriteShared32Cached(p, 0x4000, 1)
		tile.WriteShared32Cached(p, 0x4020, 2) // second line
		tile.FlushShared(p, 0x4000, 64)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.SDRAM.Read32(0x4000) != 1 || s.SDRAM.Read32(0x4020) != 2 {
		t.Fatal("flush lost dirty data")
	}
	if tile.Stats.FlushInstrs != 2 {
		t.Fatalf("FlushInstrs = %d, want 2", tile.Stats.FlushInstrs)
	}
	if tile.Stats.FlushStall == 0 {
		t.Fatal("dirty flush must cost bus time")
	}
}

// TestWriteRangeCachedAllocs: a warm range write of whole lines, the block
// write every swcc exit makes, installs its lines from a stack buffer and
// allocates nothing.
func TestWriteRangeCachedAllocs(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tile := s.Tiles[0]
	src := make([]uint32, 4*mem.LineSize/4)
	var allocs float64
	s.K.Spawn("core", func(p *sim.Proc) {
		write := func() { tile.WriteSharedRangeCached(p, 0x4000, src) }
		write() // warm the I-cache and the D-cache lines
		allocs = testing.AllocsPerRun(100, write)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm full-line range write allocated %.1f times per call, want 0", allocs)
	}
}

func TestLockIntegrationAttributesWait(t *testing.T) {
	s, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tile := s.Tiles[i]
		s.K.Spawn("w", func(p *sim.Proc) {
			tile.AcquireLock(p, 7)
			p.Wait(50)
			tile.ReleaseLock(p, 7)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	total := s.TotalStats()
	if total.LockWait == 0 {
		t.Fatal("contended lock produced no recorded wait")
	}
}

func TestCentralizedLockSelection(t *testing.T) {
	cfg := testConfig(2)
	cfg.Locks = LockCentralized
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.CLock == nil || s.DLock != nil {
		t.Fatal("centralized lock not selected")
	}
	done := false
	tile := s.Tiles[0]
	s.K.Spawn("w", func(p *sim.Proc) {
		tile.AcquireLock(p, 3)
		tile.ReleaseLock(p, 3)
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("centralized lock did not complete")
	}
}

func TestStatsTotalIncludesAllCategories(t *testing.T) {
	st := TileStats{Busy: 1, IStall: 2, PrivReadStall: 3, SharedReadStall: 4,
		WriteStall: 5, FlushStall: 6, LockWait: 7, CopyStall: 8}
	if st.Total() != 36 {
		t.Fatalf("Total = %d, want 36", st.Total())
	}
	var sum TileStats
	sum.Add(st)
	sum.Add(st)
	if sum.Total() != 72 {
		t.Fatalf("Add/Total = %d, want 72", sum.Total())
	}
}

func TestDefaultICacheGeometry(t *testing.T) {
	if icache.Sets()*icache.LineSize*icache.Ways != icache.Size {
		t.Fatal("I-cache geometry inconsistent")
	}
	if err := icache.Valid(); err != nil {
		t.Fatal(err)
	}
}

// config1024 is the largest platform the sweeps build: 1024 tiles of the
// MemPool-style clustered mesh.
func config1024(tb testing.TB) Config {
	tb.Helper()
	cfg := testConfig(1024)
	topo, err := noc.ParseTopology("cluster:32xmesh")
	if err != nil {
		tb.Fatal(err)
	}
	cfg.NoC.Topology = topo
	return cfg
}

// TestNewLean1024 guards construction cost at scale: New allocates only
// the state a run can use — cache tags and D-cache data on first fill or
// Install, NoC flow state on first message, memories on first write. Tags
// allocated up front alone (6 KiB per tile) would exceed the bound.
func TestNewLean1024(t *testing.T) {
	cfg := config1024(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("New(1024 tiles) allocated %.1f MiB, want < %d MiB", float64(got)/(1<<20), limit>>20)
	}
	runtime.KeepAlive(s)
}

func BenchmarkNew1024(b *testing.B) {
	cfg := config1024(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewLitmusAllocs guards construction cost at litmus size, where
// fuzz campaigns build thousands of systems: a 3-tile system pays for the
// tiles it has, not for the 32 MiB of SDRAM it declares nor for cache
// tags before their first use. An eagerly sized chunk directory alone
// (8,192 entries) would exceed the bound, and so would tags allocated up
// front (6 KiB per tile).
func TestNewLitmusAllocs(t *testing.T) {
	cfg := testConfig(3)
	const calls, limit = 100, 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > limit {
		t.Fatalf("New(3 tiles) allocated %d B per call, want at most %d", got, limit)
	}
}

func BenchmarkNewLitmus(b *testing.B) {
	cfg := testConfig(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUncachedRead(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Tiles = 1
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tile := sys.Tiles[0]
	sys.K.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			tile.ReadShared32Uncached(p, 0x4000)
		}
	})
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}
