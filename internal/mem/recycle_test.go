package mem

import "testing"

// TestRecycledChunksReadFresh: a RAM whose chunks come from a recycled
// RAM reads exactly like a fresh one: zeros where it never wrote, or the
// seed image's bytes for a RAM of a seed.
func TestRecycledChunksReadFresh(t *testing.T) {
	dirty := make([]byte, 2*chunkSize)
	for i := range dirty {
		dirty[i] = byte(i*7 + 1)
	}
	// fill leaves exactly four dirty chunks on the free list.
	fill := func() {
		for {
			if _, ok := freeChunks.Get(0); !ok {
				break
			}
		}
		r := NewRAM(0, 4*chunkSize)
		r.WriteBlock(0, dirty)
		r.WriteBlock(2*chunkSize, dirty)
		r.Recycle()
	}

	fill()
	r := NewRAM(0x1000, 4*chunkSize)
	r.Write32(0x1000+chunkSize+8, 5) // draws a dirty chunk
	for a := Addr(0x1000); a < 0x1000+4*chunkSize; a += 4 {
		want := uint32(0)
		if a == 0x1000+chunkSize+8 {
			want = 5
		}
		if got := r.Read32(a); got != want {
			t.Fatalf("fresh-looking RAM reads %#x at %#x, want %#x", got, a, want)
		}
	}

	fill()
	s := NewSeed(2 * chunkSize)
	img := make([]byte, 2*chunkSize)
	for i := range img {
		img[i] = byte(i % 251)
	}
	s.WriteBlock(0, img) // the image's chunks are recycled ones too
	sr := s.NewRAM(0x8000)
	sr.Write32(0x8000+4, 9)
	got := make([]byte, 2*chunkSize)
	sr.ReadBlock(0x8000, got)
	img[4], img[5], img[6], img[7] = 9, 0, 0, 0
	if string(got) != string(img) {
		t.Fatal("a seeded RAM on recycled chunks does not read as its seed")
	}
}
