package soc

import (
	"testing"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/sim"
)

// levelCases are the two memory levels, each exercised from a tile whose
// unit at that level is not unit 0.
var levelCases = []struct {
	name  string
	level Level
}{{"local", LevelLocal}, {"cluster", LevelCluster}}

// TestLevelWordAccess: word and word-range loads and stores against the
// tile's memory at each level, including the stall accounting buckets
// they charge. Only
// the cluster scratch's crossbar cycle is a shared access: a tile-local
// access is covered by its execute cycle and charges no stall.
func TestLevelWordAccess(t *testing.T) {
	for _, lc := range levelCases {
		t.Run(lc.name, func(t *testing.T) {
			cfg := testConfig(8)
			cfg.NoC.Topology = noc.ClusterTopo(4, noc.KindRing) // 2 clusters
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tl := s.Tiles[5] // cluster 1
			u := tl.Unit(lc.level)
			if want := map[Level]int{LevelLocal: 5, LevelCluster: 1}[lc.level]; u != want {
				t.Fatalf("tile 5's unit = %d, want %d", u, want)
			}
			var got uint32
			gotRange := make([]uint32, 2)
			s.K.Spawn("t5", func(p *sim.Proc) {
				tl.WriteLevel32(p, lc.level, lc.level.Addr(u, 0x40), 0xfeed)
				got = tl.ReadLevel32(p, lc.level, lc.level.Addr(u, 0x40))
				tl.WriteLevelRange(p, lc.level, lc.level.Addr(u, 0x80), []uint32{7, 8})
				tl.ReadLevelRange(p, lc.level, lc.level.Addr(u, 0x80), gotRange)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 0xfeed {
				t.Fatalf("%s read back %#x, want 0xfeed", lc.level, got)
			}
			if gotRange[0] != 7 || gotRange[1] != 8 {
				t.Fatalf("%s range read back %v, want [7 8]", lc.level, gotRange)
			}
			// One word plus a two-word range each way, every word charged
			// like the single-word path.
			const words = 3
			shared := uint64(0)
			if lc.level.Latency() > 0 {
				shared = words
			}
			if tl.Stats.SharedReads != shared || tl.Stats.SharedWrites != shared {
				t.Fatalf("shared counters = %d/%d, want %d/%d", tl.Stats.SharedReads, tl.Stats.SharedWrites, shared, shared)
			}
			lat := words * lc.level.Latency()
			if tl.Stats.SharedReadStall != lat || tl.Stats.WriteStall != lat {
				t.Fatalf("crossbar stalls = %d/%d, want %d/%d", tl.Stats.SharedReadStall, tl.Stats.WriteStall, lat, lat)
			}
			m := s.Mem(lc.level, u)
			if m != tl.Mem(lc.level) {
				t.Fatal("system and tile resolve different memories")
			}
			if m.CoreReads != words || m.CoreWrites != words {
				t.Fatal("memory port counters not charged")
			}
		})
	}
}

// TestLevelCopies: SDRAM<->level bursts, word access to the staged copy,
// and the intra-level DMA move data and charge CopyStall; the DMA costs
// one cycle per word plus the level's crossbar traversal.
func TestLevelCopies(t *testing.T) {
	for _, lc := range levelCases {
		t.Run(lc.name, func(t *testing.T) {
			cfg := testConfig(4)
			cfg.NoC.Topology = noc.ClusterTopo(2, noc.KindRing) // 2 clusters
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tl := s.Tiles[3] // cluster 1
			u := tl.Unit(lc.level)
			for i := 0; i < 16; i++ {
				s.SDRAM.Write32(mem.Addr(0x5000+4*i), uint32(i*i))
			}
			src := mem.Addr(0x1000)
			payload := []byte("level-memory staging payload!!!!")
			s.SDRAM.WriteBlock(src, payload)
			out := make([]byte, len(payload))
			var dmaStall sim.Time
			s.K.Spawn("t3", func(p *sim.Proc) {
				dst := lc.level.Addr(u, 0x100)
				tl.CopyToLevel(p, lc.level, 0x5000, dst, 64)
				if v := tl.ReadLevel32(p, lc.level, dst+4*5); v != 25 {
					t.Errorf("%s copy word 5 = %d, want 25", lc.level, v)
				}
				tl.WriteLevel32(p, lc.level, dst+4*5, 999)
				tl.CopyFromLevel(p, lc.level, dst, 0x5000, 64)

				tl.CopyToLevel(p, lc.level, src, lc.level.Addr(u, 0x200), len(payload))
				before := tl.Stats.CopyStall
				tl.CopyLevel(p, lc.level, lc.level.Addr(u, 0x200), lc.level.Addr(u, 0x300), len(payload))
				dmaStall = tl.Stats.CopyStall - before
				tl.CopyFromLevel(p, lc.level, lc.level.Addr(u, 0x300), 0x2000, len(payload))
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if v := s.SDRAM.Read32(0x5000 + 20); v != 999 {
				t.Fatalf("copy back lost data: %d", v)
			}
			s.SDRAM.ReadBlock(0x2000, out)
			if string(out) != string(payload) {
				t.Fatalf("round-trip through %s = %q", lc.level, out)
			}
			if tl.Stats.CopyStall == 0 {
				t.Fatal("block copies must cost time")
			}
			if want := sim.Time(len(payload)/4) + lc.level.Latency(); dmaStall != want {
				t.Fatalf("DMA of %d words stalled %d cycles, want %d", len(payload)/4, dmaStall, want)
			}
		})
	}
}
