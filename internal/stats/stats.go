// Package stats renders measured results in the paper's formats — most
// importantly the stacked execution-time breakdown of Fig. 8 — and holds
// the exact measurement container the service workloads feed (latency
// histograms).
//
// Category mapping from the simulator's counters to the paper's five bars:
//
//	core utilization  = Busy + LockWait (a spinning core executes poll
//	                    instructions; the platform's counters see it as
//	                    not-stalled)
//	I-cache stall     = IStall
//	private read      = PrivReadStall
//	shared read       = SharedReadStall
//	write stall       = WriteStall + FlushStall (flush-triggered
//	                    writebacks occupy the bus like writes)
//	copy              = CopyStall (SPM/DSM staging; zero in Fig. 8 modes)
//
// The extended table also reports the raw lock/flush/copy components so
// nothing is hidden by the mapping.
//
// The package depends only on sim and soc so every measurement consumer
// (workloads, sweep, perf, exp) can import it without cycles.
package stats

import (
	"fmt"
	"io"
	"strings"

	"pmc/internal/sim"
	"pmc/internal/soc"
)

// Sample is the measurement slice of one run that the renderers need: a
// label, the makespan, and the accumulated platform counters. Producers
// that hold richer result types (workloads.Result) convert down to it.
type Sample struct {
	Label  string
	Cycles sim.Time
	Stats  soc.TileStats
}

// Utilization returns the Fig. 8 "core utilization" fraction of the
// accounted cycles: Busy + LockWait (see the package comment for why a
// spinning core counts as utilized). This is the single source of truth
// for the mapping; Result.Utilization and NewBreakdown both use it.
func Utilization(t soc.TileStats) float64 {
	tot := float64(t.Total())
	if tot == 0 {
		return 0
	}
	return float64(t.Busy+t.LockWait) / tot
}

// FlushOverheadPct returns the percentage of accounted cycles spent
// executing cache-control instructions — the paper counts exactly this
// ("the time spent on executing flush instructions") and reports
// 0.66 / 0.00 / 0.01 % for its three applications. Bus time for the
// flush-triggered writebacks is accounted separately (FlushStall) and
// folded into the write-stall bar when rendering Fig. 8.
func FlushOverheadPct(t soc.TileStats) float64 {
	tot := float64(t.Total())
	if tot == 0 {
		return 0
	}
	return 100 * float64(t.FlushInstrs) / tot
}

// Breakdown is one run normalized into Fig. 8 categories.
type Breakdown struct {
	Label  string
	Cycles sim.Time
	// Fractions of the run's accounted cycles per Fig. 8 category, in
	// paper order (bottom to top): core utilization, private read stall,
	// shared read stall, write stall, I-cache stall, copy stall.
	Frac [6]float64
	// Norm is the run's total relative to a reference run (the "no CC"
	// bar is 100 %).
	Norm float64
	// FlushInstrPct is the paper's flush-overhead metric.
	FlushInstrPct float64
}

// NewBreakdown classifies a sample. refCycles scales the bar height (pass
// the reference run's cycles; use the run's own cycles for a 100 % bar).
// A zero refCycles yields Norm 0 rather than Inf/NaN, mirroring Speedup's
// zero-reference guard.
func NewBreakdown(s Sample, refCycles sim.Time) Breakdown {
	t := s.Stats
	tot := float64(t.Total())
	if tot == 0 {
		tot = 1
	}
	b := Breakdown{
		Label:         s.Label,
		Cycles:        s.Cycles,
		FlushInstrPct: FlushOverheadPct(t),
	}
	if refCycles != 0 {
		b.Norm = float64(s.Cycles) / float64(refCycles)
	}
	b.Frac[0] = float64(t.Busy+t.LockWait) / tot
	b.Frac[1] = float64(t.PrivReadStall) / tot
	b.Frac[2] = float64(t.SharedReadStall) / tot
	b.Frac[3] = float64(t.WriteStall+t.FlushStall) / tot
	b.Frac[4] = float64(t.IStall) / tot
	b.Frac[5] = float64(t.CopyStall) / tot
	return b
}

// barGlyphs label each category in the ASCII bar.
var barGlyphs = []byte{'U', 'p', 's', 'w', 'i', 'c'}

// RenderFig8 prints the stacked, normalized bars for a set of runs grouped
// by application: the textual equivalent of the paper's Fig. 8. The first
// run of each app is the normalization reference (its bar is 100 %).
func RenderFig8(w io.Writer, groups map[string][]Sample, order []string) {
	fmt.Fprintf(w, "%-22s %10s %7s  %s\n", "run", "cycles", "norm", "breakdown (each char = 2% of the normalized bar)")
	for _, app := range order {
		runs := groups[app]
		if len(runs) == 0 {
			continue
		}
		ref := runs[0].Cycles
		for _, s := range runs {
			b := NewBreakdown(s, ref)
			fmt.Fprintf(w, "%-22s %10d %6.1f%%  %s\n", b.Label, b.Cycles, 100*b.Norm, bar(b))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "legend: U=core utilization  p=private read  s=shared read  w=write  i=I-cache  c=copy\n")
}

func bar(b Breakdown) string {
	// Round cumulatively, not per category: each segment ends at the
	// rounded cumulative height, so the total bar length always equals
	// round(Norm*50) instead of drifting by up to one char per category.
	var sb strings.Builder
	cum := 0.0
	emitted := 0
	for i, f := range b.Frac {
		cum += f
		n := int(cum*b.Norm*50+0.5) - emitted // 50 chars = 100 % of the reference bar
		for j := 0; j < n; j++ {
			sb.WriteByte(barGlyphs[i])
		}
		emitted += n
	}
	return sb.String()
}

// RenderExtended prints the full per-category table, including the
// components the Fig. 8 mapping folds together.
func RenderExtended(w io.Writer, samples []Sample) {
	fmt.Fprintf(w, "%-22s %10s %6s %6s %6s %6s %6s %6s %6s %6s %7s\n",
		"run", "cycles", "busy%", "istl%", "priv%", "shrd%", "wr%", "lock%", "flsh%", "copy%", "flIns%")
	for _, s := range samples {
		t := s.Stats
		tot := float64(t.Total())
		if tot == 0 {
			tot = 1
		}
		pct := func(x sim.Time) float64 { return 100 * float64(x) / tot }
		fmt.Fprintf(w, "%-22s %10d %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %7.2f\n",
			s.Label, s.Cycles,
			pct(t.Busy), pct(t.IStall), pct(t.PrivReadStall), pct(t.SharedReadStall),
			pct(t.WriteStall), pct(t.LockWait), pct(t.FlushStall), pct(t.CopyStall),
			FlushOverheadPct(t))
	}
}

// Speedup returns the relative execution-time improvement of b over a in
// percent (positive = b is faster), the number the paper summarizes as
// "the execution time improved by 22% on average".
func Speedup(aCycles, bCycles sim.Time) float64 {
	if aCycles == 0 {
		return 0
	}
	return 100 * (1 - float64(bCycles)/float64(aCycles))
}
