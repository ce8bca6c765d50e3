package rt

import (
	"testing"

	"pmc/internal/core"
)

// TestStagingArenaSharedByCoResidentWorkers: two workers on one tile stage
// different objects with overlapping scopes. The staging arena belongs to
// the memory, so the second copy must land beside the first instead of on
// top of it: the first worker reads its own object's data, and both
// objects write back their own contents.
func TestStagingArenaSharedByCoResidentWorkers(t *testing.T) {
	for _, mk := range []func() Backend{SPM, CSPM} {
		b := mk()
		t.Run(b.Name(), func(t *testing.T) {
			r := New(testSys(t, 2), b)
			x := r.Alloc("X", 16)
			y := r.Alloc("Y", 16)
			r.InitObject(x, []uint32{1, 1, 1, 1})
			r.InitObject(y, []uint32{2, 2, 2, 2})
			var got uint32
			r.Spawn(0, "a", func(c *Ctx) {
				c.EntryX(x)
				c.Compute(200)
				got = c.Read32(x, 0)
				c.ExitX(x)
			})
			r.Spawn(0, "b", func(c *Ctx) {
				c.Compute(50)
				c.EntryX(y)
				c.Write32(y, 0, 9)
				c.Compute(400)
				c.ExitX(y)
			})
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("worker a read X[0] = %d, want 1 (its staged copy was overwritten)", got)
			}
			for w, want := range []uint32{1, 1, 1, 1} {
				if v := r.ReadObjectWord(x, w); v != want {
					t.Fatalf("canonical X[%d] = %d, want %d", w, v, want)
				}
			}
			for w, want := range []uint32{9, 2, 2, 2} {
				if v := r.ReadObjectWord(y, w); v != want {
					t.Fatalf("canonical Y[%d] = %d, want %d", w, v, want)
				}
			}
		})
	}
}

// TestRecorderStagingSameAtBothLevels: spm and cspm are one staging
// protocol at two memory levels, so the recorder must lower the same
// program to the same model history on both — in particular, a read-only
// scope on a multi-word object holds the model lock only for the copy-in,
// as the implementation does, not for the whole scope.
func TestRecorderStagingSameAtBothLevels(t *testing.T) {
	type modelOp struct {
		kind core.Kind
		proc core.ProcID
		loc  core.Loc
		val  core.Value
	}
	record := func(b Backend) []modelOp {
		r := New(clusterSys(t, 8, 4), b)
		rec := NewRecorder(r)
		x := r.Alloc("X", 16)
		r.Spawn(0, "reader", func(c *Ctx) {
			c.EntryRO(x)
			c.Compute(2000)
			c.Read32(x, 0)
			c.ExitRO(x)
		})
		r.Spawn(1, "writer", func(c *Ctx) {
			c.Compute(200)
			c.EntryX(x)
			c.Write32(x, 0, 5)
			c.ExitX(x)
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		var ops []modelOp
		for _, op := range rec.Exec.Ops() {
			ops = append(ops, modelOp{op.Kind, op.Proc, op.Loc, op.Val})
		}
		return ops
	}
	spm, cspm := record(SPM()), record(CSPM())
	if len(spm) != len(cspm) {
		t.Fatalf("spm recorded %d model ops, cspm %d", len(spm), len(cspm))
	}
	for i := range spm {
		if spm[i] != cspm[i] {
			t.Fatalf("model op %d: spm %+v, cspm %+v", i, spm[i], cspm[i])
		}
	}
}
