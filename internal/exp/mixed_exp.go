package exp

import (
	"fmt"
	"io"

	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "mixed-ablation",
		Title: "adaptive per-object protocol migration vs every pure backend",
		Paper: "Section VI picks one architecture per system; per-object routing lets each object get the protocol its access pattern wants",
		Run:   declare(mixedAblation),
	})
}

// mixedPure is the pure-protocol comparison set: the paper's four
// single-protocol architectures.
var mixedPure = []string{"nocc", "swcc", "dsm", "spm"}

// mixedAblation runs every workload on the four pure backends and on the
// adaptive router, asserts the checksums agree grid-wide (migration is a
// protocol change, never a data change), and reports where the adaptive
// policy lands against the best and worst pure choice per app.
func mixedAblation(o Options) grid {
	// bestPure is the fewest cycles any pure backend takes on c's app.
	bestPure := func(c cell) uint64 {
		best := c.peer(mixedPure[0], c.Tiles).Cycles
		for _, b := range mixedPure[1:] {
			best = min(best, c.peer(b, c.Tiles).Cycles)
		}
		return best
	}
	return grid{
		apps: workloads.Names, backends: append(append([]string{}, mixedPure...), "adaptive"),
		tiles:    []int{o.tiles(8)},
		portable: true,
		cols: []field{
			{"app", 14, func(c cell) string { return c.App }},
			backendCol, cyclesCol,
			{"vs best pure", 12, func(c cell) string {
				return fmt.Sprintf("%+.1f%%", 100*(float64(c.Cycles)/float64(bestPure(c))-1))
			}}},
		check: func(w io.Writer, t *sweep.Table) error {
			beatsBest, beatsDefault := 0, 0
			for i := range t.Rows {
				c := cell{&t.Rows[i], t}
				if c.Backend != "adaptive" {
					continue
				}
				if c.Cycles <= bestPure(c) {
					beatsBest++
				}
				if c.Cycles < c.peer(mixedPure[0], c.Tiles).Cycles {
					beatsDefault++
				}
			}
			fmt.Fprintf(w, "\nadaptive (per-object migration at scope boundaries) matches or beats the best\n"+
				"pure backend on %d/%d apps and improves on the uniform %s default on %d/%d;\n"+
				"checksums agree grid-wide, so every migration was a pure protocol change at\n"+
				"a consistent cut.\n", beatsBest, len(workloads.Names), mixedPure[0], beatsDefault, len(workloads.Names))
			return nil
		},
		note: "the gap to the best pure backend is the warmup (objects start on nocc until\n" +
			"the pattern shows) plus migrations the consistent cut forbids; the payoff is\n" +
			"choosing per object, online, without the pure pathologies (nocc serializing\n" +
			"hot read-only objects, swcc flushing rewritten data, spm staging whole objects\n" +
			"for one-word reads).",
	}
}
