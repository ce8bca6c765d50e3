package mem

import (
	"testing"
	"testing/quick"

	"pmc/internal/sim"
)

// read8 and write8 are one-byte block accesses.
func read8(r *RAM, addr Addr) uint8 {
	var b [1]byte
	r.ReadBlock(addr, b[:])
	return b[0]
}

func write8(r *RAM, addr Addr, v uint8) { r.WriteBlock(addr, []byte{v}) }

func TestRAMRoundTrip(t *testing.T) {
	r := NewRAM(0x1000, 256)
	r.Write32(0x1000, 0xdeadbeef)
	if got := r.Read32(0x1000); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", got)
	}
	// Little-endian byte view.
	if got := read8(r, 0x1000); got != 0xef {
		t.Fatalf("byte read = %#x, want 0xef (little-endian)", got)
	}
	write8(r, 0x10ff, 0x7a)
	if got := read8(r, 0x10ff); got != 0x7a {
		t.Fatalf("byte read = %#x, want 0x7a", got)
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
	if got := read8(r, chunkSize+7); got != 0 {
		t.Fatalf("untouched byte read = %#x, want 0", got)
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
	write8(r2, chunkSize-1, 0xaa) // materialize only the first chunk
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
		func() { read8(r, 0xff) },
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

// The SDRAM tests below pin the platform's timing: a word access holds
// its bank for WordLat (14) and then the shared channel for
// ChannelWordLat (2); a line burst holds its bank for LineLat (28) and
// the channel for ChannelLineLat (8) per line. Banks interleave at line
// granularity.

func TestSDRAMTimingUncontended(t *testing.T) {
	k := sim.New()
	s := NewSDRAM(0, 4096)
	k.Spawn("a", func(p *sim.Proc) {
		if stall := s.WriteWord(p, 0, 42); stall != 16 {
			t.Errorf("uncontended write stall = %d, want 16 (14 bank + 2 channel)", stall)
		}
		v, stall := s.ReadWord(p, 0)
		if v != 42 {
			t.Errorf("read = %d, want 42", v)
		}
		if stall != 16 {
			t.Errorf("uncontended read stall = %d, want 16", stall)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSDRAMTimingContended(t *testing.T) {
	k := sim.New()
	s := NewSDRAM(0, 4096)
	var stallA2, stallB sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		s.WriteWord(p, 0, 42) // bank 0 [0,14), channel [14,16)
		// Requested at 16, behind b on bank 0: bank [28,42), channel
		// [42,44).
		_, stallA2 = s.ReadWord(p, 0)
	})
	k.Spawn("b", func(p *sim.Proc) {
		// Requested at cycle 0 in the same line, so the same bank, while
		// a's write occupies it: FIFO grants b the bank at [14,28) and
		// the channel at [28,30).
		_, stallB = s.ReadWord(p, 4)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if stallB != 30 {
		t.Fatalf("same-bank queued stall (b) = %d, want 30 (14 queued + 14 bank + 2 channel)", stallB)
	}
	if stallA2 != 28 {
		t.Fatalf("same-bank queued stall (a, 2nd access) = %d, want 28", stallA2)
	}
	if s.WordReads != 2 || s.WordWrites != 1 {
		t.Fatalf("counters: reads=%d writes=%d", s.WordReads, s.WordWrites)
	}
}

// TestSDRAMBanksOverlap: two accesses to consecutive lines use two banks,
// whose row accesses overlap, while the one channel serializes their
// transfers.
func TestSDRAMBanksOverlap(t *testing.T) {
	k := sim.New()
	s := NewSDRAM(0, 4096)
	var stallA, stallB sim.Time
	k.Spawn("a", func(p *sim.Proc) { _, stallA = s.ReadWord(p, 0) })
	k.Spawn("b", func(p *sim.Proc) { _, stallB = s.ReadWord(p, LineSize) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both banks busy [0,14); the channel carries a at [14,16), b at
	// [16,18).
	if stallA != 16 || stallB != 18 {
		t.Fatalf("two-bank stalls = %d, %d, want 16, 18", stallA, stallB)
	}
	if g := s.Grants(); g != 2 {
		t.Fatalf("grants = %d, want 2", g)
	}
}

// TestSDRAMMultiLineBurst: AccessLines pays one row access, then streams
// every line over the channel back to back.
func TestSDRAMMultiLineBurst(t *testing.T) {
	k := sim.New()
	s := NewSDRAM(0, 4096)
	var stall sim.Time
	k.Spawn("a", func(p *sim.Proc) { stall = s.AccessLines(p, 0, 4) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if stall != 60 {
		t.Fatalf("4-line burst stall = %d, want 60 (28 bank + 4×8 channel)", stall)
	}
}

func TestReserveLineAtReservesBank(t *testing.T) {
	s := NewSDRAM(0, 1024)
	// Bank 0 [100,128), channel [128,136).
	if end := s.ReserveLineAt(100, 0); end != 136 {
		t.Fatalf("end = %d, want 136", end)
	}
	// A later access to the same line's bank queues behind it: bank
	// [128,142), channel [142,144).
	if got := s.ReserveWordAt(110, 4); got != 144 {
		t.Fatalf("queued word completes at %d, want 144", got)
	}
}

func TestLocalMemory(t *testing.T) {
	l := &Local{RAM: NewRAM(0x8000_0000, 1024), Tile: 3}
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
		if got := r.Read32(r.base + chunkSize - 2); got != 0x04030201 {
			t.Fatalf("seeded Read32 = %#x, want 0x04030201", got)
		}
		if r.owns(0) || r.owns(1) {
			t.Fatal("seed write materialized a chunk")
		}
	}
	write8(a, a.base+chunkSize-1, 0xaa)
	if !a.owns(0) || a.owns(1) || b.owns(0) {
		t.Fatal("a RAM's write must materialize exactly its own chunk")
	}
	if got := read8(b, b.base+chunkSize-1); got != 2 {
		t.Fatalf("other RAM reads %#x after a's write, want the seed's 2", got)
	}
	seed.WriteBlock(chunkSize-2, []byte{5, 6, 7, 8})
	for _, r := range []*RAM{a, b} {
		if got := r.Read32(r.base + chunkSize - 2); got != 0x08070605 {
			t.Fatalf("reseeded Read32 = %#x, want 0x08070605", got)
		}
	}
}
