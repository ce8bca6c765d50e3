package rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"pmc/internal/core"
	"pmc/internal/mem"
	"pmc/internal/soc"
	"pmc/internal/trace"
)

func testSys(t *testing.T, tiles int) *soc.System {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Tiles = tiles
	cfg.MaxCycles = 50_000_000
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkWriteOrder checks the determinism requirement of Section IV-D on a
// recorded execution: all writes to each location, its initial write
// included, are in total ≺G order. Edges run from older to newer ops, so
// two writes are ordered when the older reaches the newer.
func checkWriteOrder(e *core.Execution) error {
	var ws []*core.Op
	for _, op := range e.Ops() {
		if op.Kind == core.KWrite || op.IsInit {
			ws = append(ws, op)
		}
	}
	for i, a := range ws {
		for _, b := range ws[i+1:] {
			if a.Loc == b.Loc && !e.ReachableG(a.ID, b.ID) {
				return fmt.Errorf("writes %s and %s are not totally ordered (data race)", a, b)
			}
		}
	}
	return nil
}

// allBackends returns a fresh instance of every backend, keyed by name.
func allBackends() []Backend {
	return []Backend{NoCC(), SWCC(), SWCCLazy(), DSM(), SPM(), CDSM(), CSPM(), Adaptive()}
}

// pollUntil spins on a word-sized object until it reads want.
func pollUntil(c *Ctx, o *Object, want uint32) {
	for {
		c.EntryRO(o)
		v := c.Read32(o, 0)
		c.ExitRO(o)
		if v == want {
			return
		}
		c.Compute(8)
	}
}

// TestMessagePassingAllBackends runs the annotated Fig. 6 program on every
// backend, with the model recorder verifying each read: the reader must
// always receive 42.
func TestMessagePassingAllBackends(t *testing.T) {
	for _, b := range allBackends() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			sys := testSys(t, 4)
			r := New(sys, b)
			rec := NewRecorder(r)
			x := r.Alloc("X", 4)
			f := r.Alloc("f", 4)
			var got uint32
			r.Spawn(0, "writer", func(c *Ctx) {
				c.EntryX(x)
				c.Write32(x, 0, 42)
				c.Fence()
				c.ExitX(x)
				c.EntryX(f)
				c.Write32(f, 0, 1)
				c.Flush(f)
				c.ExitX(f)
			})
			r.Spawn(1, "reader", func(c *Ctx) {
				pollUntil(c, f, 1)
				c.Fence()
				c.EntryX(x)
				got = c.Read32(x, 0)
				c.ExitX(x)
			})
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 42 {
				t.Fatalf("reader got %d, want 42", got)
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

// TestCounterAllBackends increments a shared counter from every tile under
// entry_x/exit_x; the total must be exact on every backend (coherence and
// mutual exclusion both working).
func TestCounterAllBackends(t *testing.T) {
	const tiles, iters = 4, 10
	for _, b := range allBackends() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			sys := testSys(t, tiles)
			r := New(sys, b)
			rec := NewRecorder(r)
			ctr := r.Alloc("counter", 4)
			for i := 0; i < tiles; i++ {
				r.Spawn(i, "incr", func(c *Ctx) {
					for n := 0; n < iters; n++ {
						c.EntryX(ctr)
						c.Write32(ctr, 0, c.Read32(ctr, 0)+1)
						c.ExitX(ctr)
						c.Compute(20)
					}
				})
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if got := r.ReadObjectWord(ctr, 0); got != tiles*iters {
				t.Fatalf("counter = %d, want %d", got, tiles*iters)
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

// TestSWCCStalenessWithinScope shows the incoherence SWCC manages: a reader
// that cached X keeps seeing the stale value within its read-only scope
// (legal under PMC slow reads) and sees the fresh value after re-entering.
func TestSWCCStalenessWithinScope(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, SWCC())
	rec := NewRecorder(r)
	x := r.Alloc("X", 4)
	flag := r.Alloc("flag", 4)
	var stale, fresh uint32
	r.Spawn(0, "writer", func(c *Ctx) {
		// Wait until the reader has cached X.
		pollUntil(c, flag, 1)
		c.EntryX(x)
		c.Write32(x, 0, 7)
		c.ExitX(x) // eager: flushes to SDRAM
		c.EntryX(flag)
		c.Write32(flag, 0, 2)
		c.Flush(flag)
		c.ExitX(flag)
	})
	r.Spawn(1, "reader", func(c *Ctx) {
		c.EntryRO(x)
		if v := c.Read32(x, 0); v != 0 {
			t.Errorf("initial read = %d, want 0", v)
		}
		c.EntryX(flag)
		c.Write32(flag, 0, 1)
		c.Flush(flag)
		c.ExitX(flag)
		pollUntil(c, flag, 2) // writer has published X=7
		// Still inside the RO scope of x: the cached line is stale.
		stale = c.Read32(x, 0)
		c.ExitRO(x)
		// Re-entering invalidated the line: fresh data.
		c.EntryRO(x)
		fresh = c.Read32(x, 0)
		c.ExitRO(x)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if stale != 0 {
		t.Fatalf("in-scope read = %d, want stale 0 (the cache must not be coherent)", stale)
	}
	if fresh != 7 {
		t.Fatalf("re-entered read = %d, want 7", fresh)
	}
	// Both values are legal under the model (slow reads).
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDSMFlushPropagates: without flush a DSM write stays in the writer's
// replica; flush broadcasts it.
func TestDSMFlushPropagates(t *testing.T) {
	sys := testSys(t, 4)
	r := New(sys, DSM())
	x := r.Alloc("X", 4)
	done := r.Alloc("done", 4)
	var before uint32
	r.Spawn(0, "writer", func(c *Ctx) {
		c.EntryX(x)
		c.Write32(x, 0, 5)
		// No flush yet: remote replicas still hold 0.
		c.Flush(x) // now broadcast
		c.ExitX(x)
		c.EntryX(done)
		c.Write32(done, 0, 1)
		c.Flush(done)
		c.ExitX(done)
	})
	r.Spawn(2, "reader", func(c *Ctx) {
		// Unsynchronized peek before anything happened.
		c.EntryRO(x)
		before = c.Read32(x, 0)
		c.ExitRO(x)
		pollUntil(c, done, 1)
		// The flush of x was broadcast before done was set; per-flow
		// FIFO does not order x (flow 0→2) against done's poll, so
		// poll until the replica shows it.
		pollUntil(c, x, 5)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("replica showed %d before any flush", before)
	}
}

// TestDSMTransferCarriesData: with no flush at all, the data must still
// arrive at the next exclusive owner via the lock-transfer push.
func TestDSMTransferCarriesData(t *testing.T) {
	sys := testSys(t, 4)
	r := New(sys, DSM())
	rec := NewRecorder(r)
	x := r.Alloc("X", 64) // multi-word object
	var got uint32
	r.Spawn(3, "writer", func(c *Ctx) {
		c.EntryX(x)
		for w := 0; w < 16; w++ {
			c.Write32(x, 4*w, uint32(100+w))
		}
		c.ExitX(x) // lazy: nothing sent yet
	})
	r.Spawn(1, "reader", func(c *Ctx) {
		c.Compute(4000) // let the writer go first
		c.EntryX(x)     // transfer pushes the object here
		got = c.Read32(x, 4*15)
		c.ExitX(x)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 115 {
		t.Fatalf("reader got %d, want 115 (transfer must carry the data)", got)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSPMScopesStageAndWriteBack: SPM copies in on entry and back on exit;
// a second scope on another tile sees the updates.
func TestSPMScopesStageAndWriteBack(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, SPM())
	rec := NewRecorder(r)
	a := r.Alloc("A", 128)
	var sum uint32
	r.Spawn(0, "producer", func(c *Ctx) {
		c.EntryX(a)
		for w := 0; w < 32; w++ {
			c.Write32(a, 4*w, uint32(w))
		}
		c.ExitX(a)
	})
	r.Spawn(1, "consumer", func(c *Ctx) {
		c.Compute(20000)
		c.EntryRO(a)
		for w := 0; w < 32; w++ {
			sum += c.Read32(a, 4*w)
		}
		c.ExitRO(a)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 31*32/2 {
		t.Fatalf("sum = %d, want %d", sum, 31*32/2)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDisciplineViolations: the runtime detects every annotation misuse.
func TestDisciplineViolations(t *testing.T) {
	cases := []struct {
		name string
		body func(c *Ctx, o *Object)
		want string
	}{
		{"read outside scope", func(c *Ctx, o *Object) { c.Read32(o, 0) }, "outside any entry/exit"},
		{"write in ro scope", func(c *Ctx, o *Object) { c.EntryRO(o); c.Write32(o, 0, 1); c.ExitRO(o) }, "write outside entry_x"},
		{"flush outside x", func(c *Ctx, o *Object) { c.EntryRO(o); c.Flush(o); c.ExitRO(o) }, "flush outside"},
		{"double entry", func(c *Ctx, o *Object) { c.EntryX(o); c.EntryX(o); c.ExitX(o) }, "already open"},
		{"exit without entry", func(c *Ctx, o *Object) { c.ExitX(o) }, "no matching entry_x"},
		{"exit_ro of x scope", func(c *Ctx, o *Object) { c.EntryX(o); c.ExitRO(o); c.ExitX(o) }, "no matching entry_ro"},
		{"unclosed scope", func(c *Ctx, o *Object) { c.EntryX(o) }, "still open at worker exit"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys := testSys(t, 1)
			r := New(sys, SWCC())
			o := r.Alloc("obj", 64)
			r.Spawn(0, "w", func(c *Ctx) { tc.body(c, o) })
			err := r.Run()
			if err == nil {
				t.Fatalf("violation not reported; recorded: %v", r.violations)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRecorderCatchesCorruption: if the memory system returns a value the
// model forbids, the recorder reports it. We fake a coherence bug by poking
// SDRAM behind the runtime's back.
func TestRecorderCatchesCorruption(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, NoCC())
	rec := NewRecorder(r)
	x := r.Alloc("X", 4)
	r.Spawn(0, "writer", func(c *Ctx) {
		c.EntryX(x)
		c.Write32(x, 0, 42)
		c.ExitX(x)
		// A rogue write that bypasses the model: simulated hardware
		// fault / protocol bug.
		sys.SDRAM.Write32(x.Addr, 99)
	})
	r.Spawn(1, "reader", func(c *Ctx) {
		c.Compute(10000)
		c.EntryX(x)
		c.Read32(x, 0)
		c.ExitX(x)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Err() == nil {
		t.Fatal("recorder failed to catch the corrupted read")
	}
	if !strings.Contains(rec.Errors[0], "not readable") {
		t.Fatalf("unexpected error text: %s", rec.Errors[0])
	}
}

// TestRORemainsConcurrentOnSPM: SPM releases the lock right after the copy,
// so two RO scopes overlap; SWCC holds it, so they serialize. Observable in
// the lock wait time.
func TestRORemainsConcurrentOnSPM(t *testing.T) {
	run := func(b Backend) (overlap bool) {
		sys := testSys(t, 2)
		r := New(sys, b)
		o := r.Alloc("big", 256)
		inScope := 0
		sawBoth := false
		for i := 0; i < 2; i++ {
			r.Spawn(i, "ro", func(c *Ctx) {
				c.EntryRO(o)
				inScope++
				if inScope == 2 {
					sawBoth = true
				}
				c.Compute(5000) // long scope body
				for w := 0; w < 8; w++ {
					c.Read32(o, 4*w)
				}
				inScope--
				c.ExitRO(o)
			})
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return sawBoth
	}
	if !run(SPM()) {
		t.Fatal("SPM read-only scopes should overlap (lock held only during copy)")
	}
	if run(SWCC()) {
		t.Fatal("SWCC read-only scopes on multi-word objects should serialize")
	}
}

func TestDSMHeapLimitEnforced(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, DSM())
	defer func() {
		if recover() == nil {
			t.Fatal("allocating beyond local-memory capacity must panic for DSM")
		}
	}()
	r.Alloc("huge", soc.LocalBytes+4096)
}

// TestInitObjectVisibleEverywhere pre-loads an object on every backend of a
// two-cluster system. Straight after InitObject every replica — per tile
// for dsm and adaptive's inner dsm, per cluster scratch for cdsm — must
// hold the contents, and every tile must then read them through the
// runtime. The cases cover a partial init (the tail reads zero) and a
// replica that straddles a 16 KiB RAM chunk boundary.
func TestInitObjectVisibleEverywhere(t *testing.T) {
	const tiles = 4
	seq := make([]uint32, 16)
	for i := range seq {
		seq[i] = 0x0101_0101 * uint32(i+1)
	}
	cases := []struct {
		name  string
		pad   int // bytes allocated ahead of the object
		size  int
		words []uint32
	}{
		{"full", 0, 16, []uint32{10, 20, 30, 40}},
		{"partial", 0, 16, []uint32{10, 20}},
		// The heap starts at 0x40 and the pad ends one line short of
		// 16 KiB, so the 64-byte object spans the chunk boundary.
		{"chunk-straddle", 1<<14 - 0x40 - 32, 64, seq},
	}
	for _, b := range allBackends() {
		t.Run(b.Name(), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					fresh, err := ByName(b.Name())
					if err != nil {
						t.Fatal(err)
					}
					r := New(clusterSys(t, tiles, tiles/2), fresh)
					if tc.pad > 0 {
						r.Alloc("pad", tc.pad)
					}
					o := r.Alloc("tbl", tc.size)
					r.InitObject(o, tc.words)
					want := make([]uint32, o.WordCount())
					copy(want, tc.words)
					checkReplicas(t, r, o, want)
					got := make([][]uint32, tiles)
					for i := range got {
						r.Spawn(i, "rd", func(c *Ctx) {
							got[i] = make([]uint32, len(want))
							c.EntryRO(o)
							for w := range want {
								got[i][w] = c.Read32(o, 4*w)
							}
							c.ExitRO(o)
						})
					}
					if err := r.Run(); err != nil {
						t.Fatal(err)
					}
					for i := range got {
						for w, v := range want {
							if got[i][w] != v {
								t.Fatalf("tile %d word %d read %#x, want %#x", i, w, got[i][w], v)
							}
						}
					}
				})
			}
		})
	}
}

// checkReplicas requires every replica of o that InitObject seeds to hold
// want: one per tile for dsm and adaptive (whose inner dsm keeps its
// replicas warm), one per cluster scratch for cdsm.
func checkReplicas(t *testing.T, r *Runtime, o *Object, want []uint32) {
	t.Helper()
	type replica struct {
		where string
		ram   *mem.Local
		base  mem.Addr
	}
	var reps []replica
	var rb *replicaBackend
	switch b := o.route.(type) {
	case *replicaBackend:
		rb = b
	case *adaptiveBackend:
		rb = b.dsm
	}
	if rb != nil {
		for u := 0; u < r.Sys.Units(rb.level); u++ {
			reps = append(reps, replica{fmt.Sprintf("%s %d", rb.level, u), r.Sys.Mem(rb.level, u), rb.level.Addr(u, o.Addr)})
		}
	}
	for _, rep := range reps {
		for w, v := range want {
			if got := rep.ram.Read32(rep.base + mem.Addr(4*w)); got != v {
				t.Fatalf("%s replica word %d = %#x, want %#x", rep.where, w, got, v)
			}
		}
	}
}

func TestPrivateDataIsPerTile(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, SWCC())
	vals := make([]uint32, 2)
	for i := 0; i < 2; i++ {
		i := i
		r.Spawn(i, "p", func(c *Ctx) {
			arr := c.PrivAlloc(8)
			for j := 0; j < 8; j++ {
				c.PWrite(arr, j, uint32((i+1)*100+j))
			}
			vals[i] = c.PRead(arr, 3)
		})
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if vals[0] != 103 || vals[1] != 203 {
		t.Fatalf("private values = %v", vals)
	}
}

func TestCodeFootprintChangesIStalls(t *testing.T) {
	run := func(bytes int) uint64 {
		sys := testSys(t, 1)
		r := New(sys, NoCC())
		r.Spawn(0, "w", func(c *Ctx) {
			c.SetCodeFootprint(bytes)
			c.Compute(20000)
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return uint64(sys.Tiles[0].Stats.IStall)
	}
	smallFp := run(2048)  // fits the 4 KiB I-cache
	largeFp := run(16384) // 4x the I-cache
	if largeFp <= smallFp*10 {
		t.Fatalf("I-stalls small=%d large=%d: thrashing footprint must dominate", smallFp, largeFp)
	}
}

// TestTracerRecordsScopes runs the message-passing pattern with tracing
// enabled and checks the recorded event stream is balanced and ordered.
func TestTracerRecordsScopes(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, SWCC())
	r.Tracer = &trace.Trace{}
	x := r.Alloc("X", 4)
	f := r.Alloc("f", 4)
	r.Spawn(0, "writer", func(c *Ctx) {
		c.EntryX(x)
		c.Write32(x, 0, 42)
		c.Fence()
		c.ExitX(x)
		c.EntryX(f)
		c.Write32(f, 0, 1)
		c.Flush(f)
		c.ExitX(f)
	})
	r.Spawn(1, "reader", func(c *Ctx) {
		pollUntil(c, f, 1)
		c.EntryX(x)
		c.Read32(x, 0)
		c.ExitX(x)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Check the Chrome-trace export users load, not the recorder's
	// internals.
	var out bytes.Buffer
	if err := r.Tracer.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   uint64 `json:"ts"`
		TID  int    `json:"tid"`
	}
	if err := json.Unmarshal(out.Bytes(), &events); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	// Balanced begin/end per tile and nondecreasing time per tile.
	depth := map[int]int{}
	lastT := map[int]uint64{}
	var fences, flushes, xScopes int
	for _, e := range events {
		if e.Ts < lastT[e.TID] {
			t.Fatalf("events out of order on tile %d", e.TID)
		}
		lastT[e.TID] = e.Ts
		switch e.Ph {
		case "B":
			depth[e.TID]++
			if e.Name == "x:X" {
				xScopes++
			}
		case "E":
			depth[e.TID]--
			if depth[e.TID] < 0 {
				t.Fatal("End without Begin")
			}
		case "i":
			switch {
			case e.Name == "fence":
				fences++
			case strings.HasPrefix(e.Name, "flush:"):
				flushes++
			}
		default:
			t.Fatalf("unknown phase %q", e.Ph)
		}
	}
	for tile, d := range depth {
		if d != 0 {
			t.Fatalf("tile %d has %d unclosed scopes", tile, d)
		}
	}
	if fences != 1 || flushes != 1 {
		t.Fatalf("fences=%d flushes=%d, want 1,1", fences, flushes)
	}
	if xScopes != 2 { // writer + reader
		t.Fatalf("x:X scopes = %d, want 2", xScopes)
	}
}
