package soc

import (
	"testing"
	"testing/quick"

	"pmc/internal/mem"
	"pmc/internal/sim"
)

// Tests for the loop-shaped instruction-fetch walker (SetCodeLoop), the
// mechanism that sets each workload's steady-state I-miss rate.

func walkerSys(t *testing.T) *System {
	t.Helper()
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCodeLoopHotOnlyWarmsUp(t *testing.T) {
	s := walkerSys(t)
	tile := s.Tiles[0]
	s.K.Spawn("core", func(p *sim.Proc) {
		tile.SetCodeLoop(0x1000, 2048, 0, 1)
		tile.Exec(p, 2048/4) // one pass: cold fills
		cold := tile.Stats.IStall
		tile.Exec(p, 4*2048/4) // four more passes: all hits
		if tile.Stats.IStall != cold {
			t.Errorf("warm hot loop still missing: %d -> %d", cold, tile.Stats.IStall)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCodeLoopColdSectionMissesEachVisit(t *testing.T) {
	s := walkerSys(t)
	tile := s.Tiles[0]
	s.K.Spawn("core", func(p *sim.Proc) {
		// Hot region fits; cold section (8 KiB) is twice the I-cache,
		// so every cold visit misses every line.
		tile.SetCodeLoop(0x1000, 2048, 8192, 4)
		// Warm up through one full cycle (4 hot passes + cold).
		warm := 4*2048/4 + 8192/4
		tile.Exec(p, warm)
		base := tile.Stats
		tile.Exec(p, warm) // a steady-state cycle
		dIStall := tile.Stats.IStall - base.IStall
		if dIStall == 0 {
			t.Fatal("cold section produced no steady-state misses")
		}
		// Expect roughly one fill per cold line (256 lines); allow the
		// hot region to suffer some collateral eviction.
		fills := int(dIStall / mem.LineLat)
		if fills < 200 || fills > 512 {
			t.Errorf("steady-state fills per cycle = %d, want ~256", fills)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCodeLoopInnerPassesScaleMissRate(t *testing.T) {
	measure := func(inner int) sim.Time {
		s := walkerSys(t)
		tile := s.Tiles[0]
		s.K.Spawn("core", func(p *sim.Proc) {
			tile.SetCodeLoop(0x1000, 2048, 4096, inner)
			tile.Exec(p, 200_000)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Tiles[0].Stats.IStall
	}
	few, many := measure(4), measure(64)
	if many >= few {
		t.Fatalf("more inner passes must lower I-stall: inner=4 %d vs inner=64 %d", few, many)
	}
}

func TestCodeLoopDegeneratesToCyclic(t *testing.T) {
	// SetCodeFootprint is SetCodeLoop with no cold section.
	s1, s2 := walkerSys(t), walkerSys(t)
	run := func(s *System, setup func(tl *Tile)) sim.Time {
		tile := s.Tiles[0]
		s.K.Spawn("core", func(p *sim.Proc) {
			setup(tile)
			tile.Exec(p, 50_000)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return tile.Stats.IStall
	}
	a := run(s1, func(tl *Tile) { tl.SetCodeFootprint(0x1000, 3072) })
	b := run(s2, func(tl *Tile) { tl.SetCodeLoop(0x1000, 3072, 0, 1) })
	if a != b {
		t.Fatalf("footprint (%d) and loop-with-no-cold (%d) must behave identically", a, b)
	}
}

// Property: the walker always executes exactly the requested number of
// instructions (busy cycles == instructions), regardless of loop shape.
func TestWalkerInstructionAccountingProperty(t *testing.T) {
	prop := func(hotKiB, coldKiB, inner, n uint8) bool {
		s, err := New(testConfig(1))
		if err != nil {
			return false
		}
		tile := s.Tiles[0]
		instrs := int(n)*64 + 1
		ok := true
		s.K.Spawn("core", func(p *sim.Proc) {
			tile.SetCodeLoop(0x1000, int(hotKiB%8+1)*512, int(coldKiB%8)*512, int(inner%16)+1)
			tile.Exec(p, instrs)
			if tile.Stats.Busy != sim.Time(instrs) || tile.Stats.Instrs != uint64(instrs) {
				ok = false
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
