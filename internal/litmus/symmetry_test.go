package litmus

import (
	"reflect"
	"testing"
)

// TestAutomorphismSearch pins the discovered group sizes: iriw-sym3's
// three interchangeable readers give S_3 (5 non-identity permutations),
// classic iriw only admits the combined writer+reader+location swap, and
// an asymmetric program has none.
func TestAutomorphismSearch(t *testing.T) {
	cases := []struct {
		prog Program
		want int
	}{
		{IRIWSym3(), 5},
		{IRIW(), 1},
		{IRIW3(), 0},
		{Fig5Annotated(), 0},
		{StoreBufferingDRF(), 1},
		{StressIndependent(), 0},
	}
	for _, c := range cases {
		t.Run(c.prog.Name, func(t *testing.T) {
			x := NewExplorer(c.prog)
			if _, err := x.prepare(); err != nil {
				t.Fatal(err)
			}
			auts := x.automorphisms()
			if len(auts) != c.want {
				t.Fatalf("found %d automorphisms, want %d", len(auts), c.want)
			}
			for _, a := range auts {
				// Sanity: forward and inverse maps really invert.
				for i, img := range a.threads {
					if a.invT[img] != i {
						t.Fatalf("thread perm %v inverse %v broken", a.threads, a.invT)
					}
				}
				for r, img := range a.regTo {
					if a.regFrom[img] != r {
						t.Fatalf("reg perm %v inverse %v broken", a.regTo, a.regFrom)
					}
				}
			}
		})
	}
}

// TestSymmetryDifferential runs every cataloged program with symmetry
// reduction (sequential and parallel) against the plain memoized
// reference: Outcomes, Stuck and per-outcome path counts must be
// bit-identical — symmetry may only shrink States. States must also be
// identical across symmetric worker counts (the orbit-claim discipline).
func TestSymmetryDifferential(t *testing.T) {
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ref := explore(t, p)
			var symStates []int
			for _, workers := range []int{1, 4} {
				x := NewExplorer(p)
				x.Workers, x.Symmetry = workers, true
				r, err := x.Run()
				if err != nil {
					t.Fatalf("symmetry workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(r.Outcomes, ref.Outcomes) {
					t.Errorf("workers=%d outcomes %v != reference %v", workers, r.Outcomes, ref.Outcomes)
				}
				if r.Stuck != ref.Stuck {
					t.Errorf("workers=%d stuck %d != reference %d", workers, r.Stuck, ref.Stuck)
				}
				if r.States > ref.States {
					t.Errorf("workers=%d symmetry explored %d states, more than the reference %d", workers, r.States, ref.States)
				}
				symStates = append(symStates, r.States)
			}
			if symStates[0] != symStates[1] {
				t.Errorf("symmetric state count differs across workers: %v", symStates)
			}
		})
	}
}

// TestSymmetryCollapse pins the headline win: iriw-sym3 (three
// interchangeable readers, t=3) must collapse its canonical state count
// by at least t!/2 = 3, and classic iriw (group order 2) must shrink
// measurably.
func TestSymmetryCollapse(t *testing.T) {
	measure := func(p Program, symmetry bool) int {
		x := NewExplorer(p)
		x.Workers, x.Symmetry = 1, symmetry
		r, err := x.Run()
		if err != nil {
			t.Fatalf("%s symmetry=%v: %v", p.Name, symmetry, err)
		}
		return r.States
	}
	plain := measure(IRIWSym3(), false)
	sym := measure(IRIWSym3(), true)
	if sym*3 > plain {
		t.Errorf("iriw-sym3: %d states plain, %d with symmetry — collapse below t!/2 = 3", plain, sym)
	}
	t.Logf("iriw-sym3: %d -> %d states (%.2fx)", plain, sym, float64(plain)/float64(sym))

	plainI := measure(IRIW(), false)
	symI := measure(IRIW(), true)
	if symI >= plainI {
		t.Errorf("iriw: symmetry did not shrink states (%d -> %d)", plainI, symI)
	}
	t.Logf("iriw: %d -> %d states (%.2fx)", plainI, symI, float64(plainI)/float64(symI))
}

// TestSymmetryDeterministic: repeated symmetric parallel runs are
// bit-identical, including States.
func TestSymmetryDeterministic(t *testing.T) {
	var ref *Result
	for i := 0; i < 5; i++ {
		x := NewExplorer(IRIWSym3())
		x.Workers, x.Symmetry = 4, true
		r, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r
			continue
		}
		if !reflect.DeepEqual(r, ref) {
			t.Fatalf("run %d differs: %+v vs %+v", i, r, ref)
		}
	}
}

// TestTranslateOutcome: slot translation is a bijection on outcome
// strings and register order survives re-rendering (r1 vs r10 style names
// must not be token-sorted).
func TestTranslateOutcome(t *testing.T) {
	x := NewExplorer(IRIWSym3())
	if _, err := x.prepare(); err != nil {
		t.Fatal(err)
	}
	auts := x.automorphisms()
	if len(auts) == 0 {
		t.Fatal("no automorphisms")
	}
	a := auts[0]
	out := "a1=1 a2=0 b1=0 b2=1 c1=1 c2=1"
	there := x.translateOutcome(out, a.regTo)
	back := x.translateOutcome(there, a.regFrom)
	if back != out {
		t.Fatalf("round trip %q -> %q -> %q", out, there, back)
	}
	if x.translateOutcome(noObservations, a.regTo) != noObservations {
		t.Fatalf("no-observations outcome must pass through")
	}
}
