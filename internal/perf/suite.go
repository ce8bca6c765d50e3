package perf

import (
	"fmt"
	"sort"

	"pmc/internal/pmcd"
)

// Builtin suites. "ci" is small enough to run with repetitions inside a
// CI job yet still crosses every layer: the three SPLASH substitutes and
// the structured workloads at CI app sizes across the four backends, the
// tree and memoized litmus engines on cataloged programs, and a seeded
// fuzz campaign. "full" is the paper-scale counterpart for local
// trajectory measurements.
//
// A job's identity excludes the worker count, so each litmus job has one
// entry: the memoized engine's "memo" entry is also the parallel one, and
// worker-count independence is tested in internal/litmus.

// simE is a one-cell sweep job: app on backend at tiles on topo ("" =
// ring).
func simE(name, app, backend string, tiles int, topo string, small bool) Entry {
	var topos []string
	if topo != "" {
		topos = []string{topo}
	}
	return Entry{Name: name, Job: pmcd.JobSpec{Sweep: &pmcd.SweepJob{
		Apps: []string{app}, Backends: []string{backend}, Tiles: []int{tiles}, Topos: topos, Small: small,
	}}}
}

func lit(name, prog string, tree bool) Entry {
	return Entry{Name: name, Job: pmcd.JobSpec{Litmus: &pmcd.LitmusJob{Prog: prog, Tree: tree}}}
}

func litSym(name, prog string) Entry {
	return Entry{Name: name, Job: pmcd.JobSpec{Litmus: &pmcd.LitmusJob{Prog: prog, Symmetry: true}}}
}

func fuzzE(name string, seed int64, n int, mode string, backends []string, runs int) Entry {
	return Entry{Name: name, Job: pmcd.JobSpec{Fuzz: &pmcd.FuzzJob{Seed: seed, N: n, Mode: mode, Backends: backends, Runs: runs}}}
}

func ciSuite() []Entry {
	var es []Entry
	// Sim: the Fig. 8 SPLASH substitutes on the coherence backends, the
	// Fig. 9 FIFO on DSM under both topologies, and the Fig. 10 motion
	// estimator on scratch-pad staging — all at CI app sizes, 8 tiles.
	for _, app := range []string{"radiosity", "raytrace", "volrend"} {
		for _, b := range []string{"nocc", "swcc"} {
			es = append(es, simE("sim/"+app+"/"+b+"/8t", app, b, 8, "", true))
		}
	}
	es = append(es,
		simE("sim/raytrace/dsm/8t", "raytrace", "dsm", 8, "", true),
		simE("sim/mfifo/dsm/8t/ring", "mfifo", "dsm", 8, "ring", true),
		simE("sim/mfifo/dsm/8t/mesh", "mfifo", "dsm", 8, "mesh", true),
		simE("sim/motionest/spm/8t", "motionest", "spm", 8, "", true),
		simE("sim/msgpass/swcc/4t", "msgpass", "swcc", 4, "", true),
	)
	// Bulk ablation: the word-granular (API v1) and block-granular (API
	// v2) bulkcopy twins on every backend — the exact sim-cycles pin both
	// sides of the word-vs-block comparison.
	for _, b := range []string{"nocc", "swcc", "dsm", "spm"} {
		es = append(es,
			simE("sim/bulkcopy-word/"+b+"/8t", "bulkcopy-word", b, 8, "", true),
			simE("sim/bulkcopy/"+b+"/8t", "bulkcopy", b, 8, "", true),
		)
	}
	// Clustered platform: the hierarchical topology at 64 tiles, pinning
	// the cluster-aware backends against flat dsm on the same shape.
	for _, b := range []string{"dsm", "cdsm", "cspm"} {
		es = append(es, simE("sim/radiosity/"+b+"/64t/c8xring", "radiosity", b, 64, "cluster:8xring", true))
	}
	es = append(es, simE("sim/mfifo/cdsm/16t/c4xmesh", "mfifo", "cdsm", 16, "cluster:4xmesh", true))
	// Litmus: the tree and memoized engines on sb-drf (tree is the
	// reference semantics), the annotated Fig. 5 program, and the
	// state-collapse stress program that only the memoized engine can
	// finish.
	es = append(es,
		lit("litmus/sb-drf/tree", "sb-drf", true),
		lit("litmus/sb-drf/memo", "sb-drf", false),
		lit("litmus/fig5-annotated/memo", "fig5-annotated", false),
		lit("litmus/stress-independent/par", "stress-independent", false),
	)
	// Symmetry reduction on the iriw-class programs: states is the exact
	// orbit-collapsed count, outcomes/paths gate that the reduction stays
	// semantics-preserving.
	es = append(es,
		lit("litmus/iriw-sym3/memo", "iriw-sym3", false),
		litSym("litmus/iriw-sym3/sym", "iriw-sym3"),
		litSym("litmus/iriw/sym", "iriw"),
	)
	// Adaptive routing: the migrating backend on a migratory app and a
	// streaming app — the sim-cycles pin both the policy's decisions and
	// the migration mechanics.
	es = append(es,
		simE("sim/raytrace/adaptive/8t", "raytrace", "adaptive", 8, "", true),
		simE("sim/bulkcopy/adaptive/8t", "bulkcopy", "adaptive", 8, "", true),
	)
	// Fuzz: a short seeded differential campaign over all four backends,
	// and one with per-object placement (the "mixed" pseudo-backend).
	es = append(es, fuzzE("fuzz/mixed/seed1/n50", 1, 50, "mixed", nil, 2))
	es = append(es, fuzzE("fuzz/placed/seed2/n50", 2, 50, "drf", []string{"nocc", "mixed"}, 2))
	// Open-loop services: the first latency-gated entries — their exact
	// metrics include requests and p50/p99 simulated latency, so any
	// tail-latency drift fails the gate.
	es = append(es,
		simE("sim/server/nocc/8t", "server", "nocc", 8, "", true),
		simE("sim/server/dsm/8t", "server", "dsm", 8, "", true),
		simE("sim/server/adaptive/8t", "server", "adaptive", 8, "", true),
		simE("sim/kvstore/dsm/8t", "kvstore", "dsm", 8, "", true),
		simE("sim/kvstore/cdsm/16t/c4xring", "kvstore", "cdsm", 16, "cluster:4xring", true),
		simE("sim/stream/dsm/8t", "stream", "dsm", 8, "", true),
	)
	return es
}

func fullSuite() []Entry {
	var es []Entry
	// Paper-scale sims: the Fig. 8 comparison on the evaluation system.
	for _, app := range []string{"radiosity", "raytrace", "volrend"} {
		for _, b := range []string{"nocc", "swcc"} {
			es = append(es, simE("sim/"+app+"/"+b+"/32t", app, b, 32, "", false))
		}
	}
	for _, b := range []string{"nocc", "swcc", "dsm", "spm"} {
		es = append(es, simE("sim/mfifo/"+b+"/32t", "mfifo", b, 32, "", false))
	}
	es = append(es,
		simE("sim/motionest/spm/32t", "motionest", "spm", 32, "", false),
		simE("sim/mfifo/dsm/16t/mesh", "mfifo", "dsm", 16, "mesh", false),
	)
	for _, b := range []string{"nocc", "swcc", "dsm", "spm"} {
		es = append(es,
			simE("sim/bulkcopy-word/"+b+"/32t", "bulkcopy-word", b, 32, "", false),
			simE("sim/bulkcopy/"+b+"/32t", "bulkcopy", b, 32, "", false),
		)
	}
	for _, b := range []string{"dsm", "cdsm", "cspm"} {
		es = append(es, simE("sim/radiosity/"+b+"/256t/c16xmesh", "radiosity", b, 256, "cluster:16xmesh", false))
	}
	es = append(es, simE("sim/radiosity/cdsm/1024t/c32xmesh", "radiosity", "cdsm", 1024, "cluster:32xmesh", false))
	es = append(es,
		lit("litmus/wrc-drf/tree", "wrc-drf", true),
		lit("litmus/wrc-drf/memo", "wrc-drf", false),
		lit("litmus/iriw-3t/memo", "iriw-3t", false),
		lit("litmus/stress-independent/par", "stress-independent", false),
	)
	es = append(es,
		lit("litmus/iriw-sym3/memo", "iriw-sym3", false),
		litSym("litmus/iriw-sym3/sym", "iriw-sym3"),
		litSym("litmus/iriw/sym", "iriw"),
	)
	es = append(es,
		simE("sim/raytrace/adaptive/32t", "raytrace", "adaptive", 32, "", false),
		simE("sim/motionest/adaptive/32t", "motionest", "adaptive", 32, "", false),
	)
	es = append(es, fuzzE("fuzz/mixed/seed1/n300", 1, 300, "mixed", nil, 3))
	es = append(es, fuzzE("fuzz/placed/seed2/n300", 2, 300, "drf", []string{"nocc", "mixed"}, 3))
	// Paper-scale open-loop services with latency-gated exact metrics.
	es = append(es,
		simE("sim/server/nocc/32t", "server", "nocc", 32, "", false),
		simE("sim/server/dsm/32t", "server", "dsm", 32, "", false),
		simE("sim/server/adaptive/32t", "server", "adaptive", 32, "", false),
		simE("sim/kvstore/dsm/32t", "kvstore", "dsm", 32, "", false),
		simE("sim/kvstore/cdsm/64t/c8xring", "kvstore", "cdsm", 64, "cluster:8xring", false),
		simE("sim/stream/dsm/32t", "stream", "dsm", 32, "", false),
	)
	return es
}

var suites = map[string]func() []Entry{
	"ci":   ciSuite,
	"full": fullSuite,
}

// Suites lists the builtin suite names.
func Suites() []string {
	names := make([]string, 0, len(suites))
	for n := range suites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Suite returns a Spec for the named builtin suite.
func Suite(name string) (Spec, error) {
	mk, ok := suites[name]
	if !ok {
		return Spec{}, fmt.Errorf("perf: unknown suite %q (have %v)", name, Suites())
	}
	return Spec{Suite: name, Entries: mk()}, nil
}
