package cache

import (
	"testing"

	"pmc/internal/mem"
)

// TestRecycledArraysAreFresh: a cache that draws a recycled tag array and
// data slab holds exactly what a fresh cache holds after the same fill:
// one valid line with the backing store's bytes, every other line invalid
// and every other byte zero. A recycled cache owns nothing afterwards.
func TestRecycledArraysAreFresh(t *testing.T) {
	cfg := Config{Size: 512, Ways: 4, LineSize: 32} // a geometry no other test recycles
	ram := mem.NewRAM(0, 1<<16)
	for a := mem.Addr(0); a < 1<<12; a += 4 {
		ram.Write32(a, uint32(a)|0x8000_0000)
	}
	dc, ic := New(cfg, ram), New(cfg, ram)
	for a := mem.Addr(0); a < 1<<12; a += 32 {
		dc.Write32(a, 7) // every way valid, dirty and nonzero
		ic.Install(a)
	}
	tags, slab := dc.lines, dc.data
	dc.Recycle()
	ic.Recycle()
	if dc.owns() || ic.owns() || dc.data != nil {
		t.Fatal("a recycled cache still owns its arrays")
	}

	d := New(cfg, ram)
	if v, _ := d.Read32(0x104); v != 0x8000_0104 {
		t.Fatalf("read %#x through a recycled slab, want %#x", v, 0x8000_0104)
	}
	if &d.data[0] != &slab[0] {
		t.Fatal("the fill did not draw the recycled slab")
	}
	valid := 0
	for i, l := range d.lines {
		if l.valid {
			valid++
			continue
		}
		for _, b := range d.lineData(i) {
			if b != 0 {
				t.Fatalf("way %d of a recycled slab holds stale bytes", i)
			}
		}
	}
	if valid != 1 {
		t.Fatalf("%d valid lines after one fill on recycled tags, want 1", valid)
	}

	i := New(cfg, ram)
	i.Install(0x40)
	if &i.lines[0] != &tags[0] && &d.lines[0] != &tags[0] {
		t.Fatal("neither cache drew the recycled D-cache tags")
	}
	if res, _ := i.Probe(0x40); !res {
		t.Fatal("installed line not resident")
	}
	for _, a := range []mem.Addr{0, 0x20, 0x60, 0x100} {
		if res, _ := i.Probe(a); res {
			t.Fatalf("line %#x resident in a fresh tag-only cache", a)
		}
	}
}
