package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzRAMSize is three full chunks plus a ragged tail.
const fuzzRAMSize = 3*chunkSize + 100

// fuzzOp encodes one 4-byte op of FuzzRAMChunks: the op byte picks the
// access (op%7, see the switch) and the RAM (op>>3%3), and the address
// bytes a give byte offset a*7 % fuzzRAMSize.
func fuzzOp(kind, ram, off int, v byte) []byte {
	op := 0
	for op%7 != kind || op>>3%3 != ram {
		op++
	}
	a := 0
	for a*7%fuzzRAMSize != off {
		a++
	}
	return []byte{byte(op), byte(a >> 8), byte(a), v}
}

// Native fuzz target for the lazily chunked RAM: an arbitrary sequence of
// byte/word/block reads and writes must behave exactly like a flat,
// eagerly zeroed array — including accesses that straddle a chunk
// boundary, reads of never-materialized chunks, and reads past the end of
// a chunk directory that grew only as far as the highest chunk written.
// The sequence drives three RAMs: a plain one, and two that share a Seed,
// each against a flat reference array of its own. Seed writes land in
// both seeded references; a write to one seeded RAM lands in its
// reference only, so a write that leaked into the shared seed image (or
// the other RAM) shows as a mismatch. Run with
//
//	go test -fuzz FuzzRAMChunks ./internal/mem
func FuzzRAMChunks(f *testing.F) {
	const (
		readByte, writeByte, read32, write32, writeBlock, readBlock, seedBlock = 0, 1, 2, 3, 4, 5, 6
		plain, seeded, other                                                   = 0, 1, 2
		full                                                                   = 199 // a block of 200 bytes
	)
	for _, seed := range [][][]byte{
		// A word write straddling a chunk boundary, read back as a word
		// and as its high half.
		{fuzzOp(write32, plain, chunkSize-2, 0xaa), fuzzOp(read32, plain, chunkSize-2, 0), fuzzOp(readByte, plain, chunkSize, 0)},
		// A block across a chunk boundary.
		{fuzzOp(writeBlock, plain, 2*chunkSize-100, full), fuzzOp(readBlock, plain, 2*chunkSize-150, full)},
		// A read before any write.
		{fuzzOp(readByte, plain, 0, 0)},
		// A seed write across a boundary, read back through both seeded
		// RAMs.
		{fuzzOp(seedBlock, seeded, chunkSize-100, full), fuzzOp(readBlock, seeded, chunkSize-100, full), fuzzOp(readBlock, other, chunkSize-100, full)},
		// A seeded RAM's write over a seeded chunk, read back through the
		// other.
		{fuzzOp(seedBlock, seeded, chunkSize-100, full), fuzzOp(writeByte, seeded, chunkSize-50, 0x77), fuzzOp(readBlock, other, chunkSize-100, full)},
		// A high chunk written before a low one: the directory grows past
		// holes, which still read as zeros.
		{fuzzOp(write32, plain, 3*chunkSize+8, 0x11), fuzzOp(writeByte, plain, 5, 0x22), fuzzOp(readBlock, plain, chunkSize-100, full), fuzzOp(read32, plain, 3*chunkSize+8, 0)},
		// A seeded RAM reads a chunk past its own directory but inside
		// the seed image's.
		{fuzzOp(seedBlock, seeded, 2*chunkSize+10, full), fuzzOp(writeByte, seeded, 3, 0x33), fuzzOp(read32, seeded, 2*chunkSize+10, 0), fuzzOp(readBlock, seeded, 2*chunkSize, full)},
	} {
		f.Add(bytes.Join(seed, nil))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			base = Addr(0x8000)
			size = fuzzRAMSize
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
			case 0: // one-byte ReadBlock
				if got, want := read8(ram, addr), ref[off]; got != want {
					t.Fatalf("RAM %d: byte at %#x = %#x, want %#x", i, addr, got, want)
				}
			case 1: // one-byte WriteBlock
				write8(ram, addr, v)
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
