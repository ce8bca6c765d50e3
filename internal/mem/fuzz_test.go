package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Native fuzz target for the lazily chunked RAM: an arbitrary sequence of
// byte/word/block reads and writes must behave exactly like a flat,
// eagerly zeroed array — including accesses that straddle the 16 KiB
// chunk boundary and reads of never-materialized chunks. The sequence
// drives three RAMs: a plain one, and two that share a Seed, each
// against a flat reference array of its own. Seed writes land in both
// seeded references; a write to one seeded RAM lands in its reference
// only, so a write that leaked into the shared seed image (or the other
// RAM) shows as a mismatch. Run with
//
//	go test -fuzz FuzzRAMChunks ./internal/mem

func FuzzRAMChunks(f *testing.F) {
	// Seeds: a boundary-straddling word write, a large cross-chunk block,
	// a read-before-any-write, a seed write read back through both
	// seeded RAMs, and a seeded RAM's write over a seeded chunk read
	// back through the other.
	f.Add([]byte{1, 0x3f, 0xfe, 0xaa, 2, 0x3f, 0xff, 0x00, 0, 0x40, 0x01, 0})
	f.Add([]byte{3, 0x00, 0x10, 0x90, 4, 0x00, 0x20, 0x55, 5, 0x7f, 0x00, 0x07})
	f.Add([]byte{0, 0x00, 0x00, 0x00})
	f.Add([]byte{6, 0x01, 0x00, 0x30, 12, 0x01, 0x00, 0x30, 19, 0x01, 0x00, 0x30})
	f.Add([]byte{6, 0x01, 0x00, 0x30, 10, 0x01, 0x02, 0x77, 19, 0x01, 0x00, 0x30})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			base = Addr(0x8000)
			size = 3*chunkSize + 100 // three full chunks plus a ragged tail
		)
		seed := NewSeed(size)
		rams := []*RAM{NewRAM(base, size), seed.NewRAM(base), seed.NewRAM(base)}
		refs := [][]byte{make([]byte, size), make([]byte, size), make([]byte, size)}

		for len(ops) >= 4 {
			op, a1, a2, v := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			off := (int(a1)<<8 | int(a2)) * 7 % size
			addr := base + Addr(off)
			i := int(op>>3) % len(rams)
			ram, ref := rams[i], refs[i]
			switch op % 7 {
			case 0: // Read8
				if got, want := ram.Read8(addr), ref[off]; got != want {
					t.Fatalf("RAM %d: Read8(%#x) = %#x, want %#x", i, addr, got, want)
				}
			case 1: // Write8
				ram.Write8(addr, v)
				ref[off] = v
			case 2: // Read32
				if off+4 > size {
					continue
				}
				want := binary.LittleEndian.Uint32(ref[off:])
				if got := ram.Read32(addr); got != want {
					t.Fatalf("RAM %d: Read32(%#x) = %#x, want %#x", i, addr, got, want)
				}
			case 3: // Write32
				if off+4 > size {
					continue
				}
				word := uint32(v) * 0x01010101
				ram.Write32(addr, word)
				binary.LittleEndian.PutUint32(ref[off:], word)
			case 4, 6: // WriteBlock, to the RAM or to the seed
				n := int(v)%200 + 1
				if off+n > size {
					n = size - off
				}
				src := make([]byte, n)
				for i := range src {
					src[i] = v + byte(i)
				}
				if op%7 == 4 {
					ram.WriteBlock(addr, src)
					copy(ref[off:off+n], src)
					continue
				}
				seed.WriteBlock(Addr(off), src)
				copy(refs[1][off:off+n], src)
				copy(refs[2][off:off+n], src)
			case 5: // ReadBlock
				n := int(v)%200 + 1
				if off+n > size {
					n = size - off
				}
				dst := make([]byte, n)
				ram.ReadBlock(addr, dst)
				if !bytes.Equal(dst, ref[off:off+n]) {
					t.Fatalf("RAM %d: ReadBlock(%#x, %d) mismatch", i, addr, n)
				}
			}
		}

		// Full sweep: each chunked view and its flat reference must agree
		// everywhere, including untouched chunks.
		got := make([]byte, size)
		for i, ram := range rams {
			ram.ReadBlock(base, got)
			if !bytes.Equal(got, refs[i]) {
				t.Fatalf("final contents of RAM %d diverge from its flat reference", i)
			}
		}
	})
}
