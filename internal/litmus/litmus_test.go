package litmus

import (
	"reflect"
	"testing"
	"testing/quick"

	"pmc/internal/core"
)

func explore(t *testing.T, p Program) *Result {
	t.Helper()
	r, err := Explore(p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return r
}

// TestFig1Broken: without synchronization on X, the reader can see the
// stale initial value even after the flag — the paper's motivating bug.
func TestFig1Broken(t *testing.T) {
	r := explore(t, Fig1Unsynchronized())
	if !r.HasOutcome("rX=42") {
		t.Fatalf("fresh outcome missing: %v", r.OutcomeList())
	}
	if !r.HasOutcome("rX=0") {
		t.Fatalf("stale outcome missing — the bug should be observable: %v", r.OutcomeList())
	}
}

// TestFig1VolatileStillBroken: fences alone cannot repair Fig. 1 ("the
// problem cannot be prevented, even if ... separated by fence
// instructions").
func TestFig1VolatileStillBroken(t *testing.T) {
	r := explore(t, Fig1Volatile())
	if !r.HasOutcome("rX=0") {
		t.Fatalf("fences alone must not fix fig 1: %v", r.OutcomeList())
	}
}

// TestFig5AnnotatedCorrect: the fully annotated program of Fig. 6 has
// exactly one outcome, rX=42, across every interleaving and read choice.
func TestFig5AnnotatedCorrect(t *testing.T) {
	r := explore(t, Fig5Annotated())
	if len(r.Outcomes) != 1 || !r.HasOutcome("poll=1 rX=42") {
		t.Fatalf("outcomes = %v, want only poll=1 rX=42", r.OutcomeList())
	}
	if r.Stuck != 0 {
		t.Fatalf("%d stuck executions", r.Stuck)
	}
}

// TestFig5NoAcquireBroken: dropping only the reader's acquire of X restores
// the stale outcome (Section IV-C's "no way ... without acquiring it").
func TestFig5NoAcquireBroken(t *testing.T) {
	r := explore(t, Fig5NoAcquire())
	if !r.HasOutcome("poll=1 rX=0") {
		t.Fatalf("stale outcome missing: %v", r.OutcomeList())
	}
	if !r.HasOutcome("poll=1 rX=42") {
		t.Fatalf("fresh outcome missing: %v", r.OutcomeList())
	}
}

// TestStoreBufferingBare: PMC admits the PC/TSO-style r1=0,r2=0 outcome
// without synchronization.
func TestStoreBufferingBare(t *testing.T) {
	r := explore(t, StoreBufferingBare())
	for _, want := range []string{"r1=0 r2=0", "r1=0 r2=1", "r1=1 r2=0", "r1=1 r2=1"} {
		if !r.HasOutcome(want) {
			t.Errorf("outcome %q missing: %v", want, r.OutcomeList())
		}
	}
}

// TestStoreBufferingDRF: with every access wrapped in entry/exit pairs and
// fences between sections, PMC simulates SC: r1=0,r2=0 disappears.
func TestStoreBufferingDRF(t *testing.T) {
	r := explore(t, StoreBufferingDRF())
	if r.HasOutcome("r1=0 r2=0") {
		t.Fatalf("DRF store buffering must exclude r1=0 r2=0 (SC simulation): %v", r.OutcomeList())
	}
	for _, want := range []string{"r1=0 r2=1", "r1=1 r2=0", "r1=1 r2=1"} {
		if !r.HasOutcome(want) {
			t.Errorf("SC outcome %q missing: %v", want, r.OutcomeList())
		}
	}
}

// TestCoRRMonotone: reads of one location by one thread never go backwards
// (slow-memory coherence).
func TestCoRRMonotone(t *testing.T) {
	r := explore(t, CoRR())
	bad := []string{"r1=1 r2=0", "r1=2 r2=0", "r1=2 r2=1"}
	for _, b := range bad {
		if r.HasOutcome(b) {
			t.Errorf("non-monotone outcome %q observed", b)
		}
	}
	for _, want := range []string{"r1=0 r2=0", "r1=0 r2=1", "r1=0 r2=2", "r1=1 r2=1", "r1=1 r2=2", "r1=2 r2=2"} {
		if !r.HasOutcome(want) {
			t.Errorf("monotone outcome %q missing: %v", want, r.OutcomeList())
		}
	}
}

// TestMutexCounter: the lock serializes the sections; each thread sees
// either the initial value or the other's write, never torn state.
func TestMutexCounter(t *testing.T) {
	r := explore(t, MutexCounter())
	want := map[string]bool{"a1=0 a2=10": true, "a1=20 a2=0": true}
	for _, o := range r.OutcomeList() {
		if !want[o] {
			t.Errorf("unexpected outcome %q", o)
		}
		delete(want, o)
	}
	for o := range want {
		t.Errorf("missing outcome %q", o)
	}
}

func TestAwaitNeverSatisfiedIsStuck(t *testing.T) {
	p := Program{
		Name: "stuck",
		Locs: []string{"f"},
		Threads: []Thread{
			{AwaitEq("f", 7, "")}, // nobody writes 7
			{Write("f", 1)},
		},
	}
	r := explore(t, p)
	if r.Stuck == 0 {
		t.Fatal("unsatisfiable await should be reported stuck")
	}
	if len(r.Outcomes) != 0 {
		t.Fatalf("no complete outcome expected, got %v", r.OutcomeList())
	}
}

func TestUnknownLocationRejected(t *testing.T) {
	p := Program{
		Name:    "bad",
		Locs:    []string{"X"},
		Threads: []Thread{{Write("Y", 1)}},
	}
	if _, err := Explore(p); err == nil {
		t.Fatal("unknown location not rejected")
	}
}

// TestReleaseWithoutHoldIsError: a malformed program whose thread releases
// a lock it never acquired (or already released) must surface as an error
// from Explore, not a panic.
func TestReleaseWithoutHoldIsError(t *testing.T) {
	cases := []Program{
		{
			Name:    "release-never-acquired",
			Locs:    []string{"X"},
			Threads: []Thread{{Release("X")}},
		},
		{
			Name:    "release-twice",
			Locs:    []string{"X"},
			Threads: []Thread{{Acquire("X"), Release("X"), Release("X")}, {Acquire("X"), Release("X")}},
		},
		{
			// Validation is static and deliberately stricter than
			// reachability: the release hides behind an await nobody
			// satisfies, so exploration would never step it, but the
			// program is malformed and gets rejected up front.
			Name:    "release-unreachable",
			Locs:    []string{"X"},
			Threads: []Thread{{AwaitEq("X", 5, ""), Release("X")}},
		},
	}
	for _, p := range cases {
		t.Run(p.Name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Explore panicked: %v", r)
				}
			}()
			if _, err := Explore(p); err == nil {
				t.Fatal("release without hold not rejected")
			}
		})
	}
}

// TestMaxStatesBoundary: an exploration that completes using exactly
// MaxStates states succeeds; the budget error fires only when work
// remained beyond it. Checked with one walker and with two (regression
// for the off-by-one that reported boundary completions as exhausted;
// parallel walkers must claim each state once), and for the tree
// oracle's node limit, which TestStressNeedsMemoization relies on.
func TestMaxStatesBoundary(t *testing.T) {
	engine := func(workers int) func(int) (*Result, error) {
		return func(budget int) (*Result, error) {
			x := NewExplorer(MutexCounter())
			x.Workers, x.MaxStates = workers, budget
			return x.Run()
		}
	}
	for _, mode := range []struct {
		name string
		run  func(budget int) (*Result, error)
	}{
		{"tree", func(limit int) (*Result, error) { return treeExplore(MutexCounter(), limit) }},
		{"memoized", engine(1)},
		{"parallel-memoized", engine(2)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			r, err := mode.run(DefaultMaxStates)
			if err != nil {
				t.Fatal(err)
			}
			n := r.States

			re, err := mode.run(n)
			if err != nil {
				t.Fatalf("completion at the budget boundary (%d states) wrongly reported exhausted: %v", n, err)
			}
			if re.States != n {
				t.Fatalf("boundary run explored %d states, want %d", re.States, n)
			}

			if _, err := mode.run(n - 1); err == nil {
				t.Fatalf("budget %d below the %d required did not error", n-1, n)
			}
		})
	}
}

// TestDifferentialModes runs every cataloged program through the engine
// with one walker and with four, and through the tree oracle
// (treeExplore), and requires identical Outcomes, Stuck and outcome
// lists. The four walkers' States must equal the one walker's. The stress
// program is exempt from the oracle — not finishing there is its purpose
// (TestStressNeedsMemoization). sb-drf's tree is pinned at 8,881 nodes.
func TestDifferentialModes(t *testing.T) {
	modes := []struct {
		name    string
		workers int
	}{{"memoized", 1}, {"parallel-memoized", 4}}
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			results := make(map[string]*Result)
			for _, m := range modes {
				x := NewExplorer(p)
				x.Workers = m.workers
				r, err := x.Run()
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				results[m.name] = r
			}
			if p.Name != "stress-independent" {
				tree, err := treeExplore(p, DefaultMaxStates)
				if err != nil {
					t.Fatalf("tree: %v", err)
				}
				results["tree"] = tree
			}
			if p.Name == "sb-drf" && results["tree"].States != 8881 {
				t.Errorf("sb-drf tree has %d nodes, want 8881", results["tree"].States)
			}
			ref := results["memoized"]
			for name, r := range results {
				if !reflect.DeepEqual(r.Outcomes, ref.Outcomes) {
					t.Errorf("%s outcomes %v != memoized %v", name, r.Outcomes, ref.Outcomes)
				}
				if r.Stuck != ref.Stuck {
					t.Errorf("%s stuck %d != memoized %d", name, r.Stuck, ref.Stuck)
				}
				if !reflect.DeepEqual(r.OutcomeList(), ref.OutcomeList()) {
					t.Errorf("%s outcome list %v != memoized %v", name, r.OutcomeList(), ref.OutcomeList())
				}
			}
			if results["parallel-memoized"].States != ref.States {
				t.Errorf("parallel memoized explored %d states, memoized %d", results["parallel-memoized"].States, ref.States)
			}
		})
	}
}

// TestParallelDeterministic: repeated parallel runs are bit-identical.
func TestParallelDeterministic(t *testing.T) {
	var ref *Result
	for i := 0; i < 5; i++ {
		x := NewExplorer(WRCDRF())
		x.Workers = 4
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

// TestStressNeedsMemoization: the stress program exceeds any reasonable
// tree budget but collapses to under a thousand canonical states, with the
// full 2×10⁸ path count preserved in the outcome totals.
func TestStressNeedsMemoization(t *testing.T) {
	if _, err := treeExplore(StressIndependent(), 50_000); err == nil {
		t.Fatal("tree enumeration finished the stress program inside 50k nodes — it is not stressful enough")
	}

	r := explore(t, StressIndependent())
	if r.States >= 10_000 {
		t.Errorf("memoization left %d states, want a collapse below 10k", r.States)
	}
	total := 0
	for _, n := range r.Outcomes {
		total += n
	}
	if total != 214_414_200 {
		t.Errorf("total path count %d, want 214414200 (multinomial of the interleavings)", total)
	}
	want := []string{"rA=2 rB=2 rC=7 rD=2"}
	if !reflect.DeepEqual(r.OutcomeList(), want) {
		t.Errorf("outcomes %v, want %v", r.OutcomeList(), want)
	}
}

func TestCatalogExplores(t *testing.T) {
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			r := explore(t, p)
			if r.States == 0 {
				t.Fatal("no states explored")
			}
		})
	}
	if _, ok := ByName("fig5-annotated"); !ok {
		t.Fatal("ByName lookup failed")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName false positive")
	}
}

// Property: in any two-thread program where one thread only writes
// ascending values under a lock and the other only reads, every thread's
// observed read sequence is monotonically nondecreasing.
func TestReaderMonotoneProperty(t *testing.T) {
	prop := func(nWrites, nReads uint8) bool {
		nw := int(nWrites%4) + 1
		nr := int(nReads%3) + 1
		var writer, reader Thread
		writer = append(writer, Acquire("X"))
		for i := 1; i <= nw; i++ {
			writer = append(writer, Write("X", core.Value(i)))
		}
		writer = append(writer, Release("X"))
		regs := make([]string, nr)
		for i := 0; i < nr; i++ {
			regs[i] = string(rune('a' + i))
			reader = append(reader, Read("X", regs[i]))
		}
		p := Program{Name: "prop", Locs: []string{"X"}, Threads: []Thread{writer, reader}}
		x := NewExplorer(p)
		x.MaxStates = 500_000
		r, err := x.Run()
		if err != nil {
			return false
		}
		// Parse each outcome and require monotone register values.
		for o := range r.Outcomes {
			vals := parseOutcome(o, regs)
			for i := 1; i < len(vals); i++ {
				if vals[i] < vals[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func parseOutcome(o string, regs []string) []int {
	vals := make([]int, len(regs))
	fields := map[string]int{}
	var key string
	var num int
	inNum := false
	flushKV := func() {
		if key != "" {
			fields[key] = num
		}
		key, num, inNum = "", 0, false
	}
	for i := 0; i < len(o); i++ {
		c := o[i]
		switch {
		case c == ' ':
			flushKV()
		case c == '=':
			inNum = true
		case inNum && c >= '0' && c <= '9':
			num = num*10 + int(c-'0')
		default:
			key += string(c)
		}
	}
	flushKV()
	for i, r := range regs {
		vals[i] = fields[r]
	}
	return vals
}

// TestFig5ScopedFence: the writer's fence scoped to X (Section IV-D)
// preserves the unique outcome of the fully annotated program.
func TestFig5ScopedFence(t *testing.T) {
	r := explore(t, Fig5ScopedFence())
	if len(r.Outcomes) != 1 || !r.HasOutcome("poll=1 rX=42") {
		t.Fatalf("outcomes = %v, want only poll=1 rX=42", r.OutcomeList())
	}
}

// TestLoadBuffering: PMC forbids out-of-thin-air — reads return only
// already-issued writes, so r1=1,r2=1 is unobservable in the LB shape.
func TestLoadBuffering(t *testing.T) {
	r := explore(t, LoadBuffering())
	if r.HasOutcome("r1=1 r2=1") {
		t.Fatalf("out-of-thin-air outcome observed: %v", r.OutcomeList())
	}
	for _, want := range []string{"r1=0 r2=0", "r1=0 r2=1", "r1=1 r2=0"} {
		if !r.HasOutcome(want) {
			t.Errorf("outcome %q missing", want)
		}
	}
}

// TestIRIWReadersMayDisagree: without synchronization the two readers can
// observe the independent writes in opposite orders — PMC is weaker than
// SC's total store order.
func TestIRIWReadersMayDisagree(t *testing.T) {
	r := explore(t, IRIW())
	// Reader 2 sees X then not-Y, reader 3 sees Y then not-X.
	if !r.HasOutcome("a=1 b=0 c=1 d=0") {
		t.Fatalf("disagreeing IRIW outcome missing: %v", r.OutcomeList())
	}
}

// TestWRCCausality: with annotations, write-to-read causality transfers
// through a second thread — T2 always reads 1.
func TestWRCCausality(t *testing.T) {
	r := explore(t, WRCDRF())
	for _, o := range r.OutcomeList() {
		if o != "r=1" {
			t.Fatalf("causality violated: outcome %q (all: %v)", o, r.OutcomeList())
		}
	}
	if !r.HasOutcome("r=1") {
		t.Fatal("no outcome recorded")
	}
}

// TestCoRWOutcomes: the read can observe the initial value or the remote
// write, never the thread's own later write (reads return issued writes
// only).
func TestCoRWOutcomes(t *testing.T) {
	r := explore(t, CoRW())
	for _, want := range []string{"r1=0", "r1=2"} {
		if !r.HasOutcome(want) {
			t.Errorf("missing outcome %q (all: %v)", want, r.OutcomeList())
		}
	}
	if r.HasOutcome("r1=1") {
		t.Fatalf("read observed the thread's own future write: %v", r.OutcomeList())
	}
}

// TestCoWROutcomes: under the bare model, Definition 12 pins the read to
// the thread's own write — the racing remote write is never ordered after
// it, so it is not readable. (The conformance harness compares against
// the effective program instead; see conform.EffectiveProgram.)
func TestCoWROutcomes(t *testing.T) {
	r := explore(t, CoWR())
	if !r.HasOutcome("r1=1") {
		t.Fatalf("own write not readable: %v", r.OutcomeList())
	}
	for _, o := range r.OutcomeList() {
		if o != "r1=1" {
			t.Fatalf("bare model admitted %q, want only r1=1 (all: %v)", o, r.OutcomeList())
		}
	}
}

// TestIRIW3ReadersMayDisagree: even though the two writes are issued by
// ONE process in program order, unsynchronized readers may observe them
// in opposite orders — ≺P is per location, so there is no global store
// order without acquires.
func TestIRIW3ReadersMayDisagree(t *testing.T) {
	r := explore(t, IRIW3())
	if !r.HasOutcome("a=0 b=1 c=1 d=1") {
		t.Errorf("reader 1 cannot see Y before X: %v", r.OutcomeList())
	}
	if !r.HasOutcome("a=1 b=1 c=1 d=0") {
		t.Errorf("reader 2 cannot see X before Y: %v", r.OutcomeList())
	}
}
