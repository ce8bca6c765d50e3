package mem_test

import (
	"bytes"
	"fmt"
	"testing"

	"pmc/internal/mem"
	"pmc/internal/soc"
)

// TestRAMDirectoryGrowsOnDemand: a RAM starts with an empty chunk
// directory, so a fresh litmus-sized (3-tile) system costs nothing per
// declared byte; a write into chunk k grows the directory to exactly k+1
// entries; a read past its end returns zeros, or the seed's bytes for a
// seeded RAM, and grows nothing.
func TestRAMDirectoryGrowsOnDemand(t *testing.T) {
	const cs = mem.ChunkSize
	t.Run("system", func(t *testing.T) {
		cfg := soc.DefaultConfig()
		cfg.Tiles = 3
		s, err := soc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rams := map[string]*mem.RAM{"sdram": s.SDRAM.RAM}
		for i, l := range s.Locals {
			rams[fmt.Sprint("local ", i)] = l.RAM
		}
		for i, c := range s.Clusters {
			rams[fmt.Sprint("cluster ", i)] = c.Scratch.RAM
		}
		for name, r := range rams {
			for _, r := range []*mem.RAM{r, mem.SeedImage(r)} {
				if r != nil && mem.DirLen(r) != 0 {
					t.Errorf("%s: fresh directory has %d entries, want 0", name, mem.DirLen(r))
				}
			}
		}
	})
	t.Run("ram", func(t *testing.T) {
		r := mem.NewRAM(0, 8*cs)
		if mem.DirLen(r) != 0 {
			t.Fatalf("fresh RAM has a %d-entry directory, want 0", mem.DirLen(r))
		}
		r.WriteBlock(5*cs+3, []byte{0x5a})
		if mem.DirLen(r) != 6 || !mem.Owns(r, 5) {
			t.Fatalf("write into chunk 5: directory %d entries, owns(5) %v; want 6, true", mem.DirLen(r), mem.Owns(r, 5))
		}
		for ci := range 5 {
			if mem.Owns(r, ci) {
				t.Fatalf("write into chunk 5 materialized chunk %d", ci)
			}
		}
		r.WriteBlock(2*cs, []byte{1}) // a lower chunk leaves the directory as it is
		if mem.DirLen(r) != 6 {
			t.Fatalf("write into chunk 2 resized the directory to %d entries, want 6", mem.DirLen(r))
		}
		if got := r.Read32(7*cs + 8); got != 0 || mem.DirLen(r) != 6 {
			t.Fatalf("Read32 past the directory = %#x with %d entries, want 0 with 6", got, mem.DirLen(r))
		}
	})
	t.Run("seeded", func(t *testing.T) {
		seed := mem.NewSeed(8 * cs)
		seed.WriteBlock(6*cs-2, []byte{1, 2, 3, 4})
		const base = 0x1000_0000
		r := seed.NewRAM(base)
		r.WriteBlock(base, []byte{9})
		if mem.DirLen(r) != 1 {
			t.Fatalf("directory has %d entries after a write into chunk 0, want 1", mem.DirLen(r))
		}
		got := make([]byte, 4)
		r.ReadBlock(base+6*cs-2, got)
		if !bytes.Equal(got, []byte{1, 2, 3, 4}) || mem.DirLen(r) != 1 {
			t.Fatalf("ReadBlock past the directory = %v with %d entries, want the seed's [1 2 3 4] with 1", got, mem.DirLen(r))
		}
	})
}
