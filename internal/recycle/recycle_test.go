package recycle_test

import (
	"fmt"
	"strings"
	"testing"

	"pmc/internal/conform"
	"pmc/internal/core"
	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/recycle"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/sweep"
)

// The differential test lives here, beside the free lists, because only
// this package's tests can drain them (export_test.go).

// render writes every op of a recorded execution with its in- and
// out-edges in list order: two executions render alike exactly when the
// recorder built the same graph.
func render(b *strings.Builder, e *core.Execution) {
	for _, op := range e.Ops() {
		fmt.Fprintf(b, "%s %q in", op, op.Label)
		for _, ed := range e.In(op.ID) {
			fmt.Fprintf(b, " %d%s", ed.From, ed.Ord)
		}
		b.WriteString(" out")
		for _, ed := range e.Out(op.ID) {
			fmt.Fprintf(b, " %d%s", ed.To, ed.Ord)
		}
		b.WriteByte('\n')
	}
}

type pair struct {
	seed    int64
	prog    litmus.Program
	model   *litmus.Result
	backend string
	faults  rt.FaultSet
}

// runs is how many perturbed runs each pair makes, each checked on its
// own so that a fresh pass can drain the lists before every run.
const runs = 3

// check runs the pair's perturbed runs one by one, draining the free
// lists before each when drain is set, and renders everything the runs
// yield: observed outcomes, violations, findings, the error and every
// recorded execution.
func (p pair) check(drain bool) string {
	var b strings.Builder
	for r := int64(0); r < runs; r++ {
		if drain {
			recycle.Drain()
		}
		rep, err := conform.CheckOpts(p.prog, p.backend, conform.Options{
			Tiles: 3, Runs: 1, Seed: p.seed + r, MaxCycles: 400_000,
			Faults: p.faults, Model: p.model,
			Trace: func(e *core.Execution) []string {
				render(&b, e)
				return nil
			},
		})
		fmt.Fprintf(&b, "run %d: %v %v err=%v\n", r, rep.Observed, rep.Findings, err)
	}
	return b.String()
}

// TestRecycledRunEqualsFresh: a run on recycled buffers computes exactly
// what a run on fresh ones does. 100 generated mixed-mode programs on the
// five campaign backends, healthy and with release-without-flush, run
// once with the free lists drained before every run, then again in
// reverse program order on two workers, whose runs draw buffers other
// programs and backends dirtied. Every outcome, finding and recorded
// execution must match.
func TestRecycledRunEqualsFresh(t *testing.T) {
	gen := fuzz.GenConfig{Mode: fuzz.ModeMixed, MaxThreads: 3, BackendPool: fuzz.DefaultBackends}
	backends := []string{"nocc", "swcc", "dsm", "spm", conform.MixedBackend}
	rwf, err := rt.ParseFaultSet("release-without-flush")
	if err != nil {
		t.Fatal(err)
	}
	programs := 100
	if testing.Short() {
		programs = 20
	}
	var pairs []pair
	for seed, n := int64(1), 0; n < programs; seed++ {
		p := fuzz.Generate(seed, gen)
		x := litmus.NewExplorer(conform.EffectiveProgram(p))
		x.Workers, x.MaxStates = 1, 5000
		model, err := x.Run()
		if err != nil || model.Stuck > 0 {
			continue
		}
		n++
		for _, b := range backends {
			for _, f := range []rt.FaultSet{{}, rwf} {
				pairs = append(pairs, pair{seed, p, model, b, f})
			}
		}
	}
	fresh := make([]string, len(pairs))
	for i, p := range pairs {
		fresh[i] = p.check(true)
	}
	dirty := make([]string, len(pairs))
	err = sweep.Each(len(pairs), 2, func(i int) error {
		i = len(pairs) - 1 - i
		dirty[i] = pairs[i].check(false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recycle.Held() == 0 {
		t.Fatal("no buffer was recycled: the dirty pass ran on fresh buffers only")
	}
	for i, p := range pairs {
		if dirty[i] != fresh[i] {
			f, d := firstDiff(fresh[i], dirty[i])
			t.Fatalf("seed %d on %s (faults %q): recycled buffers changed the run\nfresh:    %s\nrecycled: %s",
				p.seed, p.backend, p.faults, f, d)
		}
	}
}

// firstDiff returns the first line where two renderings differ.
func firstDiff(a, b string) (string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return al[i], bl[i]
		}
	}
	return fmt.Sprintf("%d lines", len(al)), fmt.Sprintf("%d lines", len(bl))
}

// TestDoubleRecycle: recycling a system or an execution twice lists none
// of its buffers twice, so no two later runs can share one.
func TestDoubleRecycle(t *testing.T) {
	recycle.Drain()
	cfg := soc.DefaultConfig()
	cfg.Tiles = 3
	sys, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.SDRAM.Write32(0x100, 1)
	sys.Locals[1].Write32(soc.LocalAddr(1, 0), 2)
	sys.Tiles[0].DC.Write32(0x200, 3)
	sys.Tiles[2].IC.Install(0x40)
	sys.Recycle()
	once := recycle.Held()
	// A wheel, the SDRAM chunk, the local's chunk, one D-cache's tags and
	// slab and one I-cache's tags.
	if once != 6 {
		t.Fatalf("recycling a system listed %d buffers, want 6", once)
	}
	sys.Recycle()
	if got := recycle.Held(); got != once {
		t.Fatalf("recycling a system twice listed %d buffers, once %d", got, once)
	}

	e := core.NewExecution()
	x := e.AddLoc("x")
	e.Write(0, x, 1)
	e.Read(1, x, 1)
	e.Recycle()
	once = recycle.Held()
	e.Recycle()
	if got := recycle.Held(); got != once {
		t.Fatalf("recycling an execution twice listed %d buffers, once %d", got, once)
	}
}

// mustPanic runs f and fails unless it panics with a message naming a
// recycled object.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "recycled") {
			t.Errorf("%s after Recycle: recovered %v, want a recycled-use panic", what, r)
		}
	}()
	f()
}

// TestUseAfterRecyclePanics: a recycled system or execution refuses every
// use with a message that says so, instead of touching buffers another
// run may own.
func TestUseAfterRecyclePanics(t *testing.T) {
	cfg := soc.DefaultConfig()
	cfg.Tiles = 2
	sys, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Tiles[0].DC.Write32(0x200, 3)
	sys.Recycle()
	mustPanic(t, "System.Run", func() { _ = sys.Run() })
	mustPanic(t, "SDRAM read", func() { sys.SDRAM.Read32(0x100) })
	mustPanic(t, "local write", func() { sys.Locals[1].Write32(soc.LocalAddr(1, 0), 2) })
	mustPanic(t, "D-cache read", func() { sys.Tiles[0].DC.Read32(0x200) })
	mustPanic(t, "I-cache install", func() { sys.Tiles[1].IC.Install(0x40) })
	mustPanic(t, "cache flush", func() { sys.Tiles[0].DC.FlushAll() })

	e := core.NewExecution()
	x := e.AddLoc("x")
	e.Write(0, x, 1)
	e.Recycle()
	mustPanic(t, "Execution.Exec", func() { e.Read(1, x, 1) })
	mustPanic(t, "Execution.AddLoc", func() { e.AddLoc("y") })
	mustPanic(t, "Execution.Ops", func() { e.Ops() })
	mustPanic(t, "Execution.Op", func() { e.Op(0) })
	mustPanic(t, "Execution.In", func() { e.In(0) })
	mustPanic(t, "Execution.ReadableFrom", func() { e.ReadableFrom(0) })
}
