package litmus

import (
	"testing"
)

// benchExplore runs p with the given number of walkers.
func benchExplore(b *testing.B, p Program, workers int) {
	b.Helper()
	b.ReportAllocs()
	var states int
	for i := 0; i < b.N; i++ {
		x := NewExplorer(p)
		x.Workers = workers
		r, err := x.Run()
		if err != nil {
			b.Fatal(err)
		}
		states = r.States
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkLitmusExploreSequential is the pre-memoization baseline: the
// tree oracle's plain enumeration of a mid-size annotated program.
func BenchmarkLitmusExploreSequential(b *testing.B) {
	b.ReportAllocs()
	var nodes int
	for i := 0; i < b.N; i++ {
		r, err := treeExplore(WRCDRF(), DefaultMaxStates)
		if err != nil {
			b.Fatal(err)
		}
		nodes = r.States
	}
	b.ReportMetric(float64(nodes), "states/op")
}

// BenchmarkLitmusExploreMemoized measures canonical-state memoization on
// the same program, single-threaded.
func BenchmarkLitmusExploreMemoized(b *testing.B) {
	benchExplore(b, WRCDRF(), 1)
}

// BenchmarkLitmusExploreParallel measures the full default engine
// (memoization + worker pool). Compare against
// BenchmarkLitmusExploreSequential for the engine speedup.
func BenchmarkLitmusExploreParallel(b *testing.B) {
	benchExplore(b, WRCDRF(), 0)
}

// BenchmarkLitmusExploreStress runs the state-heavy stress program, which
// plain tree enumeration cannot finish inside the default budget.
func BenchmarkLitmusExploreStress(b *testing.B) {
	benchExplore(b, StressIndependent(), 0)
}

// BenchmarkLitmusCatalogDefault explores the entire catalog with the
// default engine — the workload internal/conform and internal/exp impose
// on the explorer.
func BenchmarkLitmusCatalogDefault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range Catalog() {
			if _, err := Explore(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
