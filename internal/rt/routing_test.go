package rt

import (
	"strings"
	"testing"
)

// This file covers allocation-level routing: AllocOn validation,
// cross-backend copies, fault injection composed with routing, and the
// adaptive backend's protocol migrations — all under the model recorder
// where data flows.

// TestAllocOnValidation pins the AllocOn failure modes: an unknown backend
// name and a duplicate object name are both programming errors and panic
// with messages naming the object.
func TestAllocOnValidation(t *testing.T) {
	sys := testSys(t, 2)
	r := New(sys, NoCC())
	expectPanic := func(name, want string, f func()) {
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
	expectPanic("unknown backend", `unknown backend "zzz"`, func() {
		r.AllocOn("obj", 4, "zzz")
	})
	r.AllocOn("obj", 4, "dsm")
	expectPanic("duplicate name", "duplicate object name", func() {
		r.AllocOn("obj", 4, "spm")
	})
	expectPanic("duplicate name across routes", "duplicate object name", func() {
		r.Alloc("obj", 4)
	})
}

// TestCrossBackendCopyVerified copies between objects routed to different
// backends — the transfer mux cannot use either backend's block-move
// hardware, so the copy lowers to per-word reads and writes through each
// object's own protocol. The recorder checks every lowered word against
// the model and the final bytes must round-trip exactly.
func TestCrossBackendCopyVerified(t *testing.T) {
	pairs := [][2]string{
		{"dsm", "spm"}, {"spm", "dsm"}, {"nocc", "swcc"}, {"swcc", "dsm"},
	}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair[0]+"-to-"+pair[1], func(t *testing.T) {
			sys := testSys(t, 2)
			r := New(sys, NoCC())
			rec := NewRecorder(r)
			const words = 8
			src := r.AllocOn("src", words*4, pair[0])
			dst := r.AllocOn("dst", words*4, pair[1])
			done := r.Alloc("done", 4)
			r.Spawn(0, "producer", func(c *Ctx) {
				c.EntryX(src)
				for w := 0; w < words; w++ {
					c.Write32(src, 4*w, 0x1000+uint32(w))
				}
				c.ExitX(src)
				c.EntryRO(src)
				c.EntryX(dst)
				c.Copy(dst, 0, src, 0, words)
				c.ExitX(dst)
				c.ExitRO(src)
				c.EntryX(done)
				c.Write32(done, 0, 1)
				c.Flush(done)
				c.ExitX(done)
			})
			stale := false
			r.Spawn(1, "consumer", func(c *Ctx) {
				pollUntil(c, done, 1)
				c.EntryRO(dst)
				buf := make([]uint32, words)
				c.ReadBlock(dst, 0, buf)
				c.ExitRO(dst)
				for w, v := range buf {
					if v != 0x1000+uint32(w) {
						stale = true
					}
				}
			})
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if stale {
				t.Fatal("consumer read a stale copy of dst")
			}
			for w := 0; w < words; w++ {
				if got := r.ReadObjectWord(dst, w); got != 0x1000+uint32(w) {
					t.Fatalf("dst[%d] = %#x, want %#x", w, got, 0x1000+uint32(w))
				}
			}
			if err := rec.Err(); err != nil {
				t.Fatalf("model violation: %v", err)
			}
		})
	}
}

// TestFaultsComposeWithRouting registers a fault-injected swcc route next
// to a healthy default and routes one of two counters to it: the fault
// must break exactly the routed object (stale reads flagged by the
// recorder, lost increments) while the object on the healthy route stays
// correct in the same run.
func TestFaultsComposeWithRouting(t *testing.T) {
	const tiles, iters = 4, 8
	sys := testSys(t, tiles)
	faulty := InjectFaults(SWCC(), FaultSet{SkipExitFlush: true})
	r := New(sys, NoCC(), faulty)
	rec := NewRecorder(r)
	bad := r.AllocOn("ctr-faulty", 4, faulty.Name())
	good := r.Alloc("ctr-healthy", 4)
	for i := 0; i < tiles; i++ {
		r.Spawn(i, "incr", func(c *Ctx) {
			for n := 0; n < iters; n++ {
				for _, o := range []*Object{bad, good} {
					c.EntryX(o)
					c.Write32(o, 0, c.Read32(o, 0)+1)
					c.ExitX(o)
				}
				c.Compute(25)
			}
		})
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint32(tiles * iters)
	if got := r.ReadObjectWord(good, 0); got != want {
		t.Fatalf("healthy-route counter = %d, want %d: the fault leaked across routes", got, want)
	}
	if got := r.ReadObjectWord(bad, 0); got == want {
		t.Fatal("faulty-route counter is correct: the fault did not reach the routed object")
	}
	if rec.Err() == nil {
		t.Fatal("recorder did not flag the faulty route's stale reads")
	}
	for _, msg := range rec.Errors {
		if strings.Contains(msg, "ctr-healthy") {
			t.Fatalf("recorder blamed the healthy object: %s", msg)
		}
	}
}

// TestAdaptiveMigratesCounter drives a contended multi-tile counter on the
// adaptive backend: the lock ping-pongs, so the policy must migrate the
// object off nocc (to dsm), and the migration must be invisible to the
// data — the count is exact and the recorder sees no model violation.
func TestAdaptiveMigratesCounter(t *testing.T) {
	b := Adaptive()
	const tiles, iters = 4, 12
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
				c.Compute(25)
			}
		})
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.ReadObjectWord(ctr, 0), uint32(tiles*iters); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("model violation during migration: %v", err)
	}
	if ab := b.(*adaptiveBackend); ab.st(ctr).proto != Backend(ab.dsm) {
		t.Fatalf("ping-ponging counter ended on %s, want dsm", ab.st(ctr).proto.Name())
	}
}

// TestAdaptiveMigratesReadMostly drives a never-written multi-word object
// through contended read-only scopes: the read-side flip must move it off
// nocc even though a rival reader is parked at almost every exit.
func TestAdaptiveMigratesReadMostly(t *testing.T) {
	b := Adaptive()
	const tiles, iters, words = 4, 10, 8
	sys := testSys(t, tiles)
	r := New(sys, b)
	rec := NewRecorder(r)
	table := r.Alloc("table", words*4)
	init := make([]uint32, words)
	for w := range init {
		init[w] = 7 * uint32(w)
	}
	r.InitObject(table, init)
	badSum := false
	for i := 0; i < tiles; i++ {
		r.Spawn(i, "reader", func(c *Ctx) {
			for n := 0; n < iters; n++ {
				c.EntryRO(table)
				sum := uint32(0)
				for w := 0; w < words; w++ {
					sum += c.Read32(table, 4*w)
				}
				c.ExitRO(table)
				if sum != 7*words*(words-1)/2 {
					badSum = true
				}
				c.Compute(10)
			}
		})
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if badSum {
		t.Fatal("a reader summed a torn or stale table")
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("model violation during read-side flip: %v", err)
	}
	if ab := b.(*adaptiveBackend); ab.st(table).proto != ab.swcc {
		t.Fatalf("read-only table ended on %s, want swcc", ab.st(table).proto.Name())
	}
}

// TestAdaptiveMigrationSeedsEveryReplica forces one migration to dsm at a
// scope exit: afterwards every tile's replica must hold the snapshot the
// migration gathered — the words written under the departing protocol,
// not the contents InitObject seeded.
func TestAdaptiveMigrationSeedsEveryReplica(t *testing.T) {
	b := Adaptive().(*adaptiveBackend)
	const tiles, words = 4, 8
	r := New(testSys(t, tiles), b)
	rec := NewRecorder(r)
	o := r.Alloc("obj", words*4)
	init, want := make([]uint32, words), make([]uint32, words)
	for w := range want {
		init[w] = uint32(w + 1)
		want[w] = 0x100 + uint32(w)
	}
	r.InitObject(o, init)
	r.Spawn(1, "writer", func(c *Ctx) {
		c.EntryX(o)
		for w, v := range want {
			c.Write32(o, 4*w, v)
		}
		// Make this exit's verdict migratory.
		st := b.st(o)
		st.xEntries, st.handoffs = adaptWarmup, adaptWarmup
		c.ExitX(o)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("model violation during migration: %v", err)
	}
	if b.st(o).proto != Backend(b.dsm) {
		t.Fatalf("object on %s, want dsm", b.st(o).proto.Name())
	}
	checkReplicas(t, r, o, want)
}
