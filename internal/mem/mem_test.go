package mem

import (
	"testing"
	"testing/quick"

	"pmc/internal/sim"
)

func TestRAMRoundTrip(t *testing.T) {
	r := NewRAM(0x1000, 256)
	r.Write32(0x1000, 0xdeadbeef)
	if got := r.Read32(0x1000); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", got)
	}
	// Little-endian byte view.
	if got := r.Read8(0x1000); got != 0xef {
		t.Fatalf("Read8 = %#x, want 0xef (little-endian)", got)
	}
	r.Write8(0x10ff, 0x7a)
	if got := r.Read8(0x10ff); got != 0x7a {
		t.Fatalf("Read8 = %#x, want 0x7a", got)
	}
}

func TestRAMBlockOps(t *testing.T) {
	r := NewRAM(0, 128)
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r.WriteBlock(32, src)
	dst := make([]byte, 8)
	r.ReadBlock(32, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("block mismatch at %d: %v vs %v", i, dst, src)
		}
	}
}

// TestRAMLazyZeroReads: never-written memory reads as zero through every
// access width, without materializing chunks.
func TestRAMLazyZeroReads(t *testing.T) {
	r := NewRAM(0, 4*chunkSize)
	if got := r.Read8(chunkSize + 7); got != 0 {
		t.Fatalf("untouched Read8 = %#x, want 0", got)
	}
	if got := r.Read32(2 * chunkSize); got != 0 {
		t.Fatalf("untouched Read32 = %#x, want 0", got)
	}
	dst := []byte{9, 9, 9, 9}
	r.ReadBlock(3*chunkSize-2, dst) // straddles a chunk boundary
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("untouched ReadBlock byte %d = %#x, want 0", i, b)
		}
	}
	for ci := range 4 {
		if r.owns(ci) {
			t.Fatalf("read materialized chunk %d", ci)
		}
	}
}

// TestRAMChunkBoundary exercises word and block accesses that straddle the
// lazy-chunk boundary, against partially materialized neighbors.
func TestRAMChunkBoundary(t *testing.T) {
	r := NewRAM(0, 2*chunkSize)
	// Word write/read straddling the boundary.
	at := Addr(chunkSize - 2)
	r.Write32(at, 0x11223344)
	if got := r.Read32(at); got != 0x11223344 {
		t.Fatalf("straddling Read32 = %#x, want 0x11223344", got)
	}
	// Block crossing the boundary with one side untouched.
	r2 := NewRAM(0, 2*chunkSize)
	r2.Write8(chunkSize-1, 0xaa) // materialize only the first chunk
	dst := make([]byte, 4)
	r2.ReadBlock(chunkSize-2, dst)
	if dst[0] != 0 || dst[1] != 0xaa || dst[2] != 0 || dst[3] != 0 {
		t.Fatalf("boundary ReadBlock = %v, want [0 aa 0 0]", dst)
	}
	src := []byte{1, 2, 3, 4, 5, 6}
	r2.WriteBlock(chunkSize-3, src)
	got := make([]byte, 6)
	r2.ReadBlock(chunkSize-3, got)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("boundary block round-trip = %v, want %v", got, src)
		}
	}
}

func TestRAMOutOfBoundsPanics(t *testing.T) {
	r := NewRAM(0x100, 16)
	for _, f := range []func(){
		func() { r.Read8(0xff) },
		func() { r.Read32(0x10e) }, // straddles the end
		func() { r.Write32(0x200, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSDRAMTimingUncontended(t *testing.T) {
	k := sim.New()
	s := NewSDRAM(k, 0, 4096, SDRAMConfig{WordLat: 8, LineLat: 24, LineSize: 32})
	k.Spawn("a", func(p *sim.Proc) {
		if stall := s.WriteWord(p, 0, 42); stall != 8 {
			t.Errorf("uncontended write stall = %d, want 8", stall)
		}
		v, stall := s.ReadWord(p, 0)
		if v != 42 {
			t.Errorf("read = %d, want 42", v)
		}
		if stall != 8 {
			t.Errorf("uncontended read stall = %d, want 8", stall)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSDRAMTimingContended(t *testing.T) {
	k := sim.New()
	s := NewSDRAM(k, 0, 4096, SDRAMConfig{WordLat: 8, LineLat: 24, LineSize: 32})
	var stallA2, stallB sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		s.WriteWord(p, 0, 42) // bus slot [0,8)
		_, stallA2 = s.ReadWord(p, 0)
	})
	k.Spawn("b", func(p *sim.Proc) {
		// Requested at cycle 0 while a's write occupies the bus:
		// FIFO grants b the slot [8,16), so a's second access gets
		// [16,24).
		_, stallB = s.ReadWord(p, 4)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if stallB != 16 {
		t.Fatalf("contended stall (b) = %d, want 16 (8 queued + 8 service)", stallB)
	}
	if stallA2 != 16 {
		t.Fatalf("contended stall (a, 2nd access) = %d, want 16", stallA2)
	}
	if s.WordReads != 2 || s.WordWrites != 1 {
		t.Fatalf("counters: reads=%d writes=%d", s.WordReads, s.WordWrites)
	}
}

func TestReserveLineAtReservesBank(t *testing.T) {
	k := sim.New()
	s := NewSDRAM(k, 0, 1024, SDRAMConfig{WordLat: 8, LineLat: 24, LineSize: 32})
	end := s.ReserveLineAt(100, 0)
	if end != 124 {
		t.Fatalf("end = %d, want 124", end)
	}
	// A later access to the same (single) bank must queue behind it.
	if got := s.ReserveWordAt(110, 4); got != 132 {
		t.Fatalf("queued word completes at %d, want 132", got)
	}
}

func TestLocalMemory(t *testing.T) {
	l := NewLocal(3, 0x8000_0000, 1024)
	l.NoCWriteBlock(0x8000_0010, []byte{9, 0, 0, 0})
	if l.Read32(0x8000_0010) != 9 {
		t.Fatal("NoC port write not visible")
	}
	if l.CoreReads != 0 || l.CoreWrites != 0 || l.NoCWrites != 1 {
		t.Fatalf("counters: r=%d w=%d noc=%d", l.CoreReads, l.CoreWrites, l.NoCWrites)
	}
}

// Property: words written at word-aligned addresses read back identically
// and do not disturb neighbours.
func TestRAMWordIsolationProperty(t *testing.T) {
	r := NewRAM(0, 4096)
	prop := func(slot uint16, v1, v2 uint32) bool {
		a := Addr(slot%1000) * 4
		b := a + 4
		if b+4 > 4096 {
			return true
		}
		r.Write32(a, v1)
		r.Write32(b, v2)
		return r.Read32(a) == v1 && r.Read32(b) == v2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedSharesUnwrittenChunks: a seed write reaches every RAM of the
// seed without materializing a chunk in any of them; a RAM's first write
// materializes only the chunk it lands in, as a copy, and later seed
// writes still reach that copy.
func TestSeedSharesUnwrittenChunks(t *testing.T) {
	seed := NewSeed(2 * chunkSize)
	a, b := seed.NewRAM(0x1000_0000), seed.NewRAM(0x2000_0000)
	seed.WriteBlock(chunkSize-2, []byte{1, 2, 3, 4})
	for _, r := range []*RAM{a, b} {
		if got := r.Read32(r.Base() + chunkSize - 2); got != 0x04030201 {
			t.Fatalf("seeded Read32 = %#x, want 0x04030201", got)
		}
		if r.owns(0) || r.owns(1) {
			t.Fatal("seed write materialized a chunk")
		}
	}
	a.Write8(a.Base()+chunkSize-1, 0xaa)
	if !a.owns(0) || a.owns(1) || b.owns(0) {
		t.Fatal("a RAM's write must materialize exactly its own chunk")
	}
	if got := b.Read8(b.Base() + chunkSize - 1); got != 2 {
		t.Fatalf("other RAM reads %#x after a's write, want the seed's 2", got)
	}
	seed.WriteBlock(chunkSize-2, []byte{5, 6, 7, 8})
	for _, r := range []*RAM{a, b} {
		if got := r.Read32(r.Base() + chunkSize - 2); got != 0x08070605 {
			t.Fatalf("reseeded Read32 = %#x, want 0x08070605", got)
		}
	}
}
