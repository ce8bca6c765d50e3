package soc

import (
	"runtime"
	"testing"

	"pmc/internal/cache"
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
	bad := DefaultConfig()
	bad.SDRAM.LineSize = 16 // mismatch with D-cache line
	if err := bad.Validate(); err == nil {
		t.Fatal("line-size mismatch not rejected")
	}
	// A line shorter than one instruction word holds no instruction:
	// the fetch walker would divide by zero on the first Exec.
	short := DefaultConfig()
	short.ICache.LineSize = 2
	if err := short.Validate(); err == nil {
		t.Fatal("2-byte I-cache line not rejected")
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
	if tile.Stats.SharedReadStall < s.Cfg.SDRAM.WordLat {
		t.Fatalf("shared read stall %d < word latency %d", tile.Stats.SharedReadStall, s.Cfg.SDRAM.WordLat)
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
	if elapsed >= 4*s.Cfg.SDRAM.WordLat {
		t.Fatalf("posted writes took %d cycles, expected well under %d", elapsed, 4*s.Cfg.SDRAM.WordLat)
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

func TestCopyToFromLocal(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	tile := s.Tiles[1]
	for i := 0; i < 16; i++ {
		s.SDRAM.Write32(mem.Addr(0x5000+4*i), uint32(i*i))
	}
	s.K.Spawn("core", func(p *sim.Proc) {
		dst := LocalAddr(1, 0x100)
		tile.CopyToLocal(p, 0x5000, dst, 64)
		if v := tile.ReadLocal32(p, dst+4*5); v != 25 {
			t.Errorf("local copy word 5 = %d, want 25", v)
		}
		tile.WriteLocal32(p, dst+4*5, 999)
		tile.CopyFromLocal(p, dst, 0x5000, 64)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v := s.SDRAM.Read32(0x5000 + 20); v != 999 {
		t.Fatalf("copy back lost data: %d", v)
	}
	if tile.Stats.CopyStall == 0 {
		t.Fatal("block copies must cost time")
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
	cfg := DefaultConfig()
	if cfg.ICache.Sets()*cfg.ICache.LineSize*cfg.ICache.Ways != cfg.ICache.Size {
		t.Fatal("I-cache geometry inconsistent")
	}
	if err := (cache.Config{Size: cfg.ICache.Size, Ways: cfg.ICache.Ways, LineSize: cfg.ICache.LineSize}).Valid(); err != nil {
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
// the state a run can use — tags for both caches, no I-cache data, D-cache
// data on first fill, memories on first write.
func TestNewLean1024(t *testing.T) {
	cfg := config1024(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 12 << 20
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
