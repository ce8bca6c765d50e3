package soc

import (
	"fmt"
	"testing"

	"pmc/internal/sim"
)

// TestExecInterleavedOnOneTile: two processes interleave Exec calls on one
// tile while a third, on another tile, competes for the SDRAM. Their
// calls overlap in flight, so each call must keep its own walk state: the
// finish cycles and the shared tile's Busy, IStall and Instrs are pinned
// at the values of the plain per-line wait loop.
func TestExecInterleavedOnOneTile(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	shared, rival := s.Tiles[0], s.Tiles[1]
	shared.SetCodeLoop(0x1000, 2048, 6144, 2)
	rival.SetCodeFootprint(0x40000, 8192)
	var ends []string
	for i, call := range []struct {
		tile        *Tile
		n, gap, rep int
	}{{shared, 37, 3, 6}, {shared, 53, 1, 5}, {rival, 41, 2, 6}} {
		s.K.Spawn(fmt.Sprint(i), func(p *sim.Proc) {
			for r := 0; r < call.rep; r++ {
				call.tile.Exec(p, call.n)
				ends = append(ends, fmt.Sprintf("%d:%d", i, p.Now()))
				p.Wait(sim.Time(call.gap))
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%v busy=%d istall=%d instrs=%d", ends,
		shared.Stats.Busy, shared.Stats.IStall, shared.Stats.Instrs)
	const want = "[0:237 2:313 1:336 0:505 2:541 2:764 0:821 1:847 2:989 0:1137 2:1219 1:1293 2:1444 0:1453 0:1769 1:1794 1:2100] busy=487 istall=3363 instrs=487"
	if got != want {
		t.Fatalf("interleaved Exec:\n got %s\nwant %s", got, want)
	}
}
