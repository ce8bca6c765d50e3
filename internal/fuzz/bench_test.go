package fuzz

import (
	"errors"
	"testing"

	"pmc/internal/litmus"
)

// campaignExplorePrograms returns the first n unique mixed-mode programs
// of the benchmark's fuzz-campaign for seed 1, in campaign order: program
// i comes from seed 1_000_000+i, repeats of a canonical fingerprint are
// dropped, and two- and three-thread programs alternate.
func campaignExplorePrograms(n int) []litmus.Program {
	gen := GenConfig{Mode: ModeMixed, MaxThreads: 3, BackendPool: DefaultBackends}
	seen := make(map[string]bool)
	var byThreads [2][]litmus.Program
	want := [2]int{(n + 1) / 2, n / 2}
	for s := int64(1_000_000); len(byThreads[0]) < want[0] || len(byThreads[1]) < want[1]; s++ {
		p := Generate(s, gen)
		fp := litmus.Fingerprint(p)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		if k := len(p.Threads) - 2; len(byThreads[k]) < want[k] {
			byThreads[k] = append(byThreads[k], p)
		}
	}
	progs := make([]litmus.Program, n)
	for i := range progs {
		progs[i] = byThreads[i%2][i/2]
	}
	return progs
}

// BenchmarkCampaignExplore explores the 64 programs whose exact counts the
// fuzz-campaign benchmark reports, as the campaign does (explore: one
// worker, a 5000-state budget; programs over it count no states). One
// op is all 64 explorations; states/op is the litmus.states count.
func BenchmarkCampaignExplore(b *testing.B) {
	progs := campaignExplorePrograms(64)
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		states = 0
		for _, p := range progs {
			res, err := explore(p, 5000)
			if errors.Is(err, litmus.ErrBudget) {
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			states += res.States
		}
	}
	b.ReportMetric(float64(states), "states")
}
