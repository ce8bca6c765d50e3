package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// exactMetrics are the per-layer counts that repeat exactly for a seed:
// two runs of the same code on the same seed must agree on every one, and
// a change that only touches host code must leave them unchanged.
var exactMetrics = []string{
	"sweep.cells", "soc.instrs", "rt.objects", "sim.cycles",
	"noc.messages", "noc.flit_hops", "noc.global_flit_hops",
	"mem.sdram_grants", "mem.sdram_line_ops", "mem.sdram_word_ops",
	"cache.d_hits", "cache.d_misses", "cache.i_misses", "cache.writebacks", "cache.d_hit_ratio",
	"lock.acquires", "lock.handoffs", "lock.wait_cycles",
	"fuzz.generated", "fuzz.unique_ratio",
	"litmus.explorations", "litmus.states", "conform.pairs", "conform.sim_runs", "spec.traces",
}

type verdict string

const (
	improved   verdict = "improved"
	regressed  verdict = "regressed"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// classify labels side b of one metric against side a, with the runs of
// each side in the order they alternated:
//
//   - when either side's spread (quartile distance over median) exceeds
//     the bound, the result is unresolved, unless every run of b reads
//     better than every run of a;
//   - b's median worse than a's by more than the bound is a regression;
//   - b is an improvement when it wins at least nine tenths of the pairs
//     (ties count for neither) and the medians differ by more than a's
//     quartile distance;
//   - anything else is unchanged.
func classify(a, b []float64, higherBetter bool, bound float64) verdict {
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	spread := func(q1, m, q3 float64) float64 { return ratio(q3-q1, math.Abs(m)) }
	if spread(q1a, ma, q3a) > bound || spread(q1b, mb, q3b) > bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return unresolved
				}
			}
		}
		return improved
	}
	worse := ratio(mb-ma, math.Abs(ma))
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && better(mb, ma) && math.Abs(mb-ma) > q3a-q1a {
		return improved
	}
	return unchanged
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compare prints, per workload, each end-to-end metric's median and
// quartiles on both sides and its verdict, then whether the exact
// per-layer counts agree. It reports whether anything regressed, failed
// or drifted.
func compare(w io.Writer, spec *benchSpec, aPaths, bPaths []string) (bad bool, err error) {
	load := func(paths []string) ([]*resultsFile, error) {
		var out []*resultsFile
		for _, p := range paths {
			rf, err := loadResults(p)
			if err != nil {
				return nil, err
			}
			out = append(out, rf)
		}
		return out, nil
	}
	a, err := load(aPaths)
	if err != nil {
		return false, err
	}
	b, err := load(bPaths)
	if err != nil {
		return false, err
	}
	ref := a[0].Identity
	for _, rf := range append(append([]*resultsFile(nil), a...), b...) {
		id := rf.Identity
		if id.NProc != ref.NProc || id.CPU != ref.CPU || id.GoVersion != ref.GoVersion {
			fmt.Fprintf(w, "WARNING: results from different machines or toolchains (%d×%s, %s vs %d×%s, %s)\n",
				ref.NProc, ref.CPU, ref.GoVersion, id.NProc, id.CPU, id.GoVersion)
		}
	}
	fmt.Fprintf(w, "A: %d runs, B: %d runs\n", len(a), len(b))
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		fmt.Fprintf(w, "  %-16s %-34s %-34s %8s %6s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
		tally := map[verdict]int{}
		for _, d := range spec.EndToEnd {
			av, bv := values(a, wl.Name, d.Name, false), values(b, wl.Name, d.Name, false)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "  %-16s missing\n", d.Name)
				bad = true
				continue
			}
			v := classify(av, bv, d.Better == "higher", d.Bound)
			tally[v]++
			bad = bad || v == regressed
			q1a, ma, q3a := quartiles(av)
			q1b, mb, q3b := quartiles(bv)
			fmt.Fprintf(w, "  %-16s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", ma, q1a, q3a, d.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", mb, q1b, q3b, d.Unit),
				100*ratio(mb-ma, math.Abs(ma)), 100*d.Bound, v)
		}
		fmt.Fprintf(w, "  %d improved, %d regressed, %d unchanged, %d unresolved\n",
			tally[improved], tally[regressed], tally[unchanged], tally[unresolved])
		for _, side := range []struct {
			name  string
			files []*resultsFile
		}{{"A", a}, {"B", b}} {
			for _, rf := range side.files {
				for _, wr := range rf.Workloads {
					for _, res := range []*result{wr.Untraced, wr.Traced} {
						if wr.Workload == wl.Name && res != nil && (!res.Correct || res.Failed > 0) {
							fmt.Fprintf(w, "  FAILED: side %s has a run with %d of %d operations failed\n", side.name, res.Failed, res.Attempted)
							bad = true
						}
					}
				}
			}
		}
		if drift := exactDrift(append(append([]*resultsFile(nil), a...), b...), wl.Name); len(drift) > 0 {
			fmt.Fprintf(w, "  exact counts differ between runs of one seed: %s\n", strings.Join(drift, ", "))
			bad = true
		} else {
			fmt.Fprintf(w, "  exact counts identical across runs of each seed\n")
		}
	}
	return bad, nil
}

// values collects one metric of one workload from every file, in file
// order.
func values(files []*resultsFile, workload, name string, traced bool) []float64 {
	var out []float64
	for _, rf := range files {
		for _, wr := range rf.Workloads {
			res := wr.Untraced
			if traced {
				res = wr.Traced
			}
			if wr.Workload != workload || res == nil {
				continue
			}
			if v, ok := res.Metrics[name]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// exactDrift lists the exact counts of a workload whose traced values
// differ between files of the same seed.
func exactDrift(files []*resultsFile, workload string) []string {
	bySeed := map[int64][]*resultsFile{}
	for _, rf := range files {
		bySeed[rf.Identity.Seed] = append(bySeed[rf.Identity.Seed], rf)
	}
	var drift []string
	for _, name := range exactMetrics {
		for _, group := range bySeed {
			vs := values(group, workload, name, true)
			sort.Float64s(vs)
			if len(vs) > 1 && vs[0] != vs[len(vs)-1] {
				drift = append(drift, name)
				break
			}
		}
	}
	return drift
}
