package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var updateExperiments = flag.Bool("update-experiments", false, "rewrite "+goldenPath+" from the experiments' small-scale reports")

// goldenPath holds one SHA-256 per experiment of its memoized small-scale
// report, in the order of cases. Refresh it deliberately with
//
//	go test ./internal/exp -run TestExperiments -update-experiments
const goldenPath = "testdata/experiments.sha256"

// cases is the experiment table: one row per registered ID, with the
// substrings its small-scale report must and must not contain. Every
// report must also open with its banner and not be suspiciously short.
var cases = []struct {
	id           string
	want, forbid []string
}{
	{id: "table1", want: []string{"≺S†", "fence", "acquire"}},
	{id: "table2", want: []string{"entry_x", "exit_ro", "flush", "broadcast", "42 ok"}},
	{id: "fig1", want: []string{"stale outcome observable", "fig1-volatile-fences"}},
	{id: "fig2", want: []string{"digraph", "≺P"}},
	{id: "fig3", want: []string{"digraph", "≺P"}},
	{id: "fig4", want: []string{"digraph", "≺P"}},
	// Fig 5's graph must contain the ≺S handoff and fence edges.
	{id: "fig5", want: []string{"digraph", "≺P", "≺S", "≺F", "readable at process 2's read of X: [42]"}},
	{id: "fig6", want: []string{"poll=1 rX=42", "nocc", "swcc", "swcc-lazy", "dsm", "spm"}, forbid: []string{"WRONG"}},
	{id: "fig7", want: []string{"write-only", "dual-port", "distributed"}},
	// SWCC must show a positive average improvement.
	{id: "fig8", want: []string{"radiosity", "raytrace", "volrend", "average improvement", "legend"},
		forbid: []string{"average improvement: -"}},
	{id: "fig9", want: []string{"nocc", "swcc", "dsm", "spm"}, forbid: []string{"NO DATA"}},
	{id: "fig10", want: []string{"spm", "swcc"}},
	{id: "ablation-locks"},
	{id: "ablation-release"},
	{id: "ablation-scaling"},
	{id: "ablation-dcache"},
	{id: "ablation-granularity"},
	{id: "bulk-ablation"},
	{id: "mixed-ablation"},
	{id: "ext-stencil"},
	{id: "ext-pc"},
	{id: "ext-scoped-fence"},
	{id: "ext-mesh"},
	{id: "ext-conformance"},
	{id: "sweep-scaling", want: []string{"radiosity", "raytrace", "volrend", "nocc", "swcc", "dsm", "spm",
		"mesh", "ring", "flit-hops", "speedup"}},
	// The checksum-portability assertion inside the experiment holds (a
	// failure surfaces as an experiment error), and the report includes
	// the 1024-tile smoke cell plus the hierarchical flit-hop split.
	{id: "sweep-clusters", want: []string{"radiosity", "nocc", "dsm", "cdsm", "cspm",
		"cluster:8xring", "cluster:16xmesh", "1024-tile smoke", "local/global", "speedup"}},
	// The experiment asserts full-request completion, cross-cell checksum
	// portability, and byte-identical emission across worker counts; the
	// report carries the latency tables for all three scenarios on both
	// shapes.
	{id: "sweep-services", want: []string{"server", "kvstore", "stream",
		"nocc", "dsm", "adaptive", "cdsm", "cluster:4xring",
		"p50/p99", "byte-identically", "req/kcycle"}},
	// Clean healthy campaigns in every mode and a caught, shrunk
	// fault-injection counterexample.
	{id: "fuzz", want: []string{"drf:", "racy:", "mixed:", "0 violations, 0 run errors",
		"release-without-flush", "shrunk", "entry_x(", "exit_x("}},
	// Platform-size independence, the symmetry collapse, and the
	// injected-fault detection line.
	{id: "spec-ablation", want: []string{"compositional check simulates 4 either way", "iriw-sym3", "fault detection", "divergences"}},
}

// reports memoizes each experiment's small-scale report, so every
// experiment runs once per test binary however many tests check it.
var reports = struct {
	sync.Mutex
	out map[string]string
	err map[string]error
}{out: map[string]string{}, err: map[string]error{}}

func report(id string) (string, error) {
	reports.Lock()
	defer reports.Unlock()
	if _, ok := reports.out[id]; !ok {
		var buf bytes.Buffer
		reports.err[id] = RunByID(&buf, id, Options{Scale: "small", Tiles: 4})
		reports.out[id] = buf.String()
	}
	return reports.out[id], reports.err[id]
}

// checkExperiments checks the named rows of cases, one subtest each.
func checkExperiments(t *testing.T, ids ...string) {
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			out, err := report(id)
			if err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", id, err, out)
			}
			e, _ := ByID(id)
			if banner := "=== " + id + ": " + e.Title + " ===\n"; !strings.HasPrefix(out, banner) {
				t.Errorf("report does not open with %q", banner)
			}
			if len(out) < 100 {
				t.Fatalf("suspiciously short report:\n%s", out)
			}
			for _, c := range cases {
				if c.id != id {
					continue
				}
				for _, want := range c.want {
					if !strings.Contains(out, want) {
						t.Errorf("missing %q in:\n%s", want, out)
					}
				}
				for _, bad := range c.forbid {
					if strings.Contains(out, bad) {
						t.Errorf("unexpected %q in:\n%s", bad, out)
					}
				}
			}
		})
	}
}

// TestExperiments runs every registered experiment at small scale and
// checks its report against its row of cases and every report's digest
// against goldenPath; TestRegistryComplete checks that every registered
// ID has a row.
func TestExperiments(t *testing.T) {
	var ids []string
	for _, c := range cases {
		ids = append(ids, c.id)
	}
	checkExperiments(t, ids...)
	t.Run("golden", func(t *testing.T) { checkGolden(t, ids) })
}

// checkGolden compares the digest of each experiment's report with its
// line of goldenPath, or rewrites the file under -update-experiments.
func checkGolden(t *testing.T, ids []string) {
	var fresh strings.Builder
	for _, id := range ids {
		out, err := report(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256([]byte(out))
		fmt.Fprintf(&fresh, "%s  %s\n", hex.EncodeToString(sum[:]), id)
	}
	if *updateExperiments {
		if err := os.WriteFile(goldenPath, []byte(fresh.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	old, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update-experiments)", err)
	}
	got, want := strings.Split(fresh.String(), "\n"), strings.Split(string(old), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s has %d lines for %d experiments", goldenPath, len(want)-1, len(ids))
	}
	for i, id := range ids {
		if got[i] != want[i] {
			t.Errorf("%s: report digest moved: got %.16s…, golden %.16s…", id, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Log("a report changed; after an intended change run: go test ./internal/exp -run TestExperiments -update-experiments")
	}
}

// The per-artifact tests below check their rows against the same
// memoized runs.

func TestTable1(t *testing.T)             { checkExperiments(t, "table1") }
func TestTable2(t *testing.T)             { checkExperiments(t, "table2") }
func TestFig1(t *testing.T)               { checkExperiments(t, "fig1") }
func TestFigGraphs(t *testing.T)          { checkExperiments(t, "fig2", "fig3", "fig4", "fig5") }
func TestFig6(t *testing.T)               { checkExperiments(t, "fig6") }
func TestFig7(t *testing.T)               { checkExperiments(t, "fig7") }
func TestFig8SmallScale(t *testing.T)     { checkExperiments(t, "fig8") }
func TestFig9SmallScale(t *testing.T)     { checkExperiments(t, "fig9") }
func TestFig10SmallScale(t *testing.T)    { checkExperiments(t, "fig10") }
func TestSpecAblation(t *testing.T)       { checkExperiments(t, "spec-ablation") }
func TestSweepScalingSmall(t *testing.T)  { checkExperiments(t, "sweep-scaling") }
func TestSweepClustersSmall(t *testing.T) { checkExperiments(t, "sweep-clusters") }
func TestSweepServicesSmall(t *testing.T) { checkExperiments(t, "sweep-services") }

func TestAblations(t *testing.T) {
	checkExperiments(t, "ablation-locks", "ablation-release", "ablation-scaling",
		"ablation-dcache", "ablation-granularity",
		"ext-stencil", "ext-pc", "ext-scoped-fence", "ext-mesh", "ext-conformance")
}

// TestRegistryComplete: the registry and the rows of cases name the same
// experiments.
func TestRegistryComplete(t *testing.T) {
	rows := map[string]bool{}
	for _, c := range cases {
		if _, ok := ByID(c.id); !ok || rows[c.id] {
			t.Errorf("row %q is not registered or is duplicated", c.id)
		}
		rows[c.id] = true
	}
	for _, e := range All() {
		if !rows[e.ID] {
			t.Errorf("experiment %q has no row in cases", e.ID)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByID(&buf, "nope", Options{}); err == nil {
		t.Fatal("unknown id not rejected")
	}
}

// TestScaleValidated is the regression test for the silent fallbacks:
// every scale string except "small" used to mean full paper scale, so a
// typo like "smalll" silently ran the expensive configuration, and a
// negative tile count silently ran the default.
func TestScaleValidated(t *testing.T) {
	var buf bytes.Buffer
	for _, bad := range []struct {
		o    Options
		want string // what the error must mention
	}{
		{Options{Scale: "smalll"}, "small"},
		{Options{Scale: "SMALL"}, "small"},
		{Options{Scale: "tiny"}, "small"},
		{Options{Scale: "paper"}, "small"},
		{Options{Scale: "small", Tiles: -3}, "negative"},
	} {
		if err := RunByID(&buf, "table1", bad.o); err == nil {
			t.Errorf("%+v not rejected by RunByID", bad.o)
		} else if !strings.Contains(err.Error(), bad.want) {
			t.Errorf("error for %+v does not mention %q: %v", bad.o, bad.want, err)
		}
		if err := RunAll(&buf, bad.o); err == nil {
			t.Errorf("%+v not rejected by RunAll", bad.o)
		}
	}
	for _, good := range []string{"", "small", "full"} {
		if err := RunByID(&buf, "table1", Options{Scale: good}); err != nil {
			t.Errorf("valid scale %q rejected: %v", good, err)
		}
	}
}
