package rt

import (
	"fmt"
	"strings"
	"testing"

	"pmc/internal/sim"
)

// rangeBackends returns the four Table II backends (the lazy SWCC variant
// shares swcc's data path).
func rangeBackends() []Backend {
	return []Backend{NoCC(), SWCC(), DSM(), SPM(), Adaptive()}
}

// TestBlockRoundTripAllBackends writes a pattern with WriteBlock, copies it
// with Copy and reads it back with ReadBlock on every backend, with the
// model recorder verifying every lowered word operation.
func TestBlockRoundTripAllBackends(t *testing.T) {
	const words = 37 // straddles lines and ends mid-line
	for _, b := range rangeBackends() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			sys := testSys(t, 2)
			r := New(sys, b)
			rec := NewRecorder(r)
			src := r.Alloc("src", words*4)
			dst := r.Alloc("dst", words*4)
			want := make([]uint32, words)
			for i := range want {
				want[i] = uint32(i)*2654435761 + 17
			}
			got := make([]uint32, words)
			r.Spawn(0, "w", func(c *Ctx) {
				c.EntryX(src)
				c.WriteBlock(src, 0, want)
				c.ExitX(src)
				c.EntryRO(src)
				c.EntryX(dst)
				c.Copy(dst, 0, src, 0, words)
				c.ExitX(dst)
				c.ExitRO(src)
				c.EntryRO(dst)
				c.ReadBlock(dst, 0, got)
				c.ExitRO(dst)
			})
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("word %d: got %#x want %#x", i, got[i], want[i])
				}
				if v := r.ReadObjectWord(dst, i); v != want[i] {
					t.Fatalf("canonical word %d: got %#x want %#x", i, v, want[i])
				}
			}
			if err := rec.Err(); err != nil {
				t.Fatal(err)
			}
			if err := checkWriteOrder(rec.Exec); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOneWordBlockEquivalence pins the API v2 compatibility claim: a
// one-word ReadBlock/WriteBlock returns the same data as Read32/Write32
// and costs the same sim-cycles on every backend. On nocc, whose ranged
// path lowers to the word path, an 8-word block must also match the
// explicit 8-word loop in data and cycles.
func TestOneWordBlockEquivalence(t *testing.T) {
	const iters, objWords = 16, 12
	run := func(t *testing.T, name string, width int, block bool) (sim.Time, []uint32) {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sys := testSys(t, 2)
		r := New(sys, b)
		o := r.Alloc("obj", (objWords+width-1)*4)
		r.Spawn(0, "w", func(c *Ctx) {
			c.SetCodeFootprint(1024)
			buf := make([]uint32, width)
			for i := 0; i < iters; i++ {
				off := 4 * (i % objWords)
				c.EntryX(o)
				if block {
					c.ReadBlock(o, off, buf)
				} else {
					for k := range buf {
						buf[k] = c.Read32(o, off+4*k)
					}
				}
				for k := range buf {
					buf[k] += uint32(i + k)
				}
				if block {
					c.WriteBlock(o, off, buf)
				} else {
					for k, v := range buf {
						c.Write32(o, off+4*k, v)
					}
				}
				c.ExitX(o)
			}
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		data := make([]uint32, o.WordCount())
		for k := range data {
			data[k] = r.ReadObjectWord(o, k)
		}
		return sys.K.Now(), data
	}
	for _, tc := range []struct {
		name    string
		backend string
		width   int
	}{
		{"nocc", "nocc", 1}, {"swcc", "swcc", 1}, {"dsm", "dsm", 1}, {"spm", "spm", 1},
		{"nocc-8words", "nocc", 8},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wordCycles, wordData := run(t, tc.backend, tc.width, false)
			blkCycles, blkData := run(t, tc.backend, tc.width, true)
			if wordCycles != blkCycles {
				t.Fatalf("%d-word block path costs %d cycles, word path %d", tc.width, blkCycles, wordCycles)
			}
			for k := range wordData {
				if wordData[k] != blkData[k] {
					t.Fatalf("data mismatch at word %d: word path %v, block path %v", k, wordData, blkData)
				}
			}
		})
	}
}

// TestDisciplineViolationsAllBackends is the table-driven discipline
// matrix: on every backend, out-of-scope word and block writes,
// out-of-bounds ranges, and exits without a matching entry must each
// produce the expected Violation (op, object, tile and message).
func TestDisciplineViolationsAllBackends(t *testing.T) {
	type tc struct {
		name    string
		body    func(c *Ctx, o *Object)
		op      string
		msgPart string
	}
	cases := []tc{
		{
			name:    "write32-out-of-scope",
			body:    func(c *Ctx, o *Object) { c.Write32(o, 0, 1) },
			op:      "write",
			msgPart: "write outside entry_x/exit_x scope",
		},
		{
			name:    "write32-in-ro-scope",
			body:    func(c *Ctx, o *Object) { c.EntryRO(o); c.Write32(o, 0, 1); c.ExitRO(o) },
			op:      "write",
			msgPart: "write outside entry_x/exit_x scope",
		},
		{
			name:    "writeblock-out-of-scope",
			body:    func(c *Ctx, o *Object) { c.WriteBlock(o, 0, []uint32{1, 2}) },
			op:      "write-block",
			msgPart: "write outside entry_x/exit_x scope",
		},
		{
			name:    "readblock-out-of-scope",
			body:    func(c *Ctx, o *Object) { c.ReadBlock(o, 0, make([]uint32, 2)) },
			op:      "read-block",
			msgPart: "access outside any entry/exit scope",
		},
		{
			name: "readblock-out-of-bounds",
			body: func(c *Ctx, o *Object) {
				c.EntryRO(o)
				c.ReadBlock(o, 4, make([]uint32, 8)) // 8 words at word 1 of an 8-word object
				c.ExitRO(o)
			},
			op:      "read-block",
			msgPart: "out of bounds",
		},
		{
			name: "writeblock-out-of-bounds",
			body: func(c *Ctx, o *Object) {
				c.EntryX(o)
				c.WriteBlock(o, 4*7, []uint32{1, 2})
				c.ExitX(o)
			},
			op:      "write-block",
			msgPart: "out of bounds",
		},
		{
			name: "writeblock-misaligned",
			body: func(c *Ctx, o *Object) {
				c.EntryX(o)
				c.WriteBlock(o, 2, []uint32{1})
				c.ExitX(o)
			},
			op:      "write-block",
			msgPart: "out of bounds",
		},
		{
			name: "copy-out-of-bounds",
			body: func(c *Ctx, o *Object) {
				c.EntryX(o)
				c.Copy(o, 4*4, o, 0, 8)
				c.ExitX(o)
			},
			op:      "copy",
			msgPart: "out of bounds",
		},
		{
			name:    "copy-out-of-scope",
			body:    func(c *Ctx, o *Object) { c.Copy(o, 0, o, 4, 1) },
			op:      "copy",
			msgPart: "not open",
		},
		{
			name:    "exit-x-without-entry",
			body:    func(c *Ctx, o *Object) { c.ExitX(o) },
			op:      "exit_x",
			msgPart: "no matching entry_x",
		},
		{
			name:    "exit-ro-without-entry",
			body:    func(c *Ctx, o *Object) { c.ExitRO(o) },
			op:      "exit_ro",
			msgPart: "no matching entry_ro",
		},
		{
			name:    "exit-ro-after-entry-x",
			body:    func(c *Ctx, o *Object) { c.EntryX(o); c.ExitRO(o); c.ExitX(o) },
			op:      "exit_ro",
			msgPart: "no matching entry_ro",
		},
	}
	for _, b := range rangeBackends() {
		for _, c := range cases {
			b, c := b, c
			t.Run(fmt.Sprintf("%s/%s", b.Name(), c.name), func(t *testing.T) {
				fresh, err := ByName(b.Name())
				if err != nil {
					t.Fatal(err)
				}
				sys := testSys(t, 2)
				r := New(sys, fresh)
				o := r.Alloc("obj", 8*4)
				r.Spawn(0, "w", func(ctx *Ctx) { c.body(ctx, o) })
				err = r.Run()
				if err == nil {
					t.Fatalf("expected a discipline violation, got none (violations: %v)", r.violations)
				}
				v, ok := err.(Violation)
				if !ok {
					t.Fatalf("expected a Violation, got %T: %v", err, err)
				}
				if v.Op != c.op {
					t.Fatalf("violation op = %q, want %q (%v)", v.Op, c.op, v)
				}
				if !strings.Contains(v.Msg, c.msgPart) {
					t.Fatalf("violation msg %q does not contain %q", v.Msg, c.msgPart)
				}
				if v.Obj != "obj" || v.Tile != 0 {
					t.Fatalf("violation identifies %q on tile %d, want obj on tile 0", v.Obj, v.Tile)
				}
			})
		}
	}
}

// TestAllocValidation pins the two Alloc failure modes and their messages.
func TestAllocValidation(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, NoCC())
	expectPanic := func(name string, want string, f func()) {
		t.Helper()
		defer func() {
			msg, ok := recover().(string)
			if !ok {
				t.Fatalf("%s: expected a string panic", name)
			}
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		f()
	}
	expectPanic("zero size", "size 0 must be positive", func() { r.Alloc("z", 0) })
	expectPanic("negative size", "size -4 must be positive", func() { r.Alloc("n", -4) })
	r.Alloc("x", 4)
	expectPanic("duplicate", "duplicate object name", func() { r.Alloc("x", 8) })
}
