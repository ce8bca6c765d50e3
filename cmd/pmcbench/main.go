// Command pmcbench is the behaviour-contract driver: it runs a declarative
// suite of pmcd jobs (one-cell sweeps, litmus explorations, fuzz
// campaigns) through the job service's runner, records every entry's exact
// metrics (sim-cycles, checksums, states, campaign tallies) in the
// versioned BENCH.json schema, and diffs two such reports.
// Host time is measured by the benchmark/ module, not here.
//
// Usage:
//
//	pmcbench -list                          list suites and their entries
//	pmcbench -suite ci -reps 3 -json BENCH.json
//	pmcbench -compare BENCH_baseline.json BENCH.json
//
// -reps is the number of runs per entry whose exact metrics must agree.
// Compare exits 0 when clean and 1 when gated: a missing entry or metric,
// or any change in a metric — drift in either direction means the measured
// computation changed and the committed baseline must be refreshed
// deliberately. Usage errors exit 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"pmc"
	"pmc/internal/cli"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list benchmark suites and entries")
		suite   = flag.String("suite", "", "suite to run: "+fmt.Sprint(pmc.BenchSuites()))
		reps    = flag.Int("reps", 0, "runs per entry whose exact metrics must agree (0 = 5)")
		jsonOut = flag.String("json", "", `write the BENCH.json report to this file ("-" = stdout)`)
		quiet   = flag.Bool("q", false, "suppress per-entry progress lines")
		compare = flag.String("compare", "", "baseline BENCH.json to compare against; the candidate report is the positional argument")
	)
	flag.Parse()
	positional := flag.Args()
	if *reps < 0 {
		fail(usagef("-reps must be non-negative, got %d", *reps))
	}

	switch {
	case *list:
		rejectPositional(positional)
		for _, name := range pmc.BenchSuites() {
			spec, err := pmc.BenchSuite(name)
			if err != nil {
				fail(err)
			}
			fmt.Printf("suite %s (%d entries):\n", name, len(spec.Entries))
			for _, e := range spec.Entries {
				fmt.Printf("  %s\n", e.Name)
			}
		}
		return
	case *compare != "":
		if len(positional) != 1 {
			fail(usagef("-compare needs exactly one candidate report argument, got %d", len(positional)))
		}
		if err := runCompare(*compare, positional[0]); err != nil {
			fail(err)
		}
		return
	case *suite != "":
		rejectPositional(positional)
		if err := runSuite(*suite, *reps, *jsonOut, *quiet); err != nil {
			fail(err)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

// rejectPositional guards the modes that take no positional arguments, so
// a mistyped invocation (e.g. "-suite ci BENCH.json" without -json) fails
// loudly instead of silently discarding the argument.
func rejectPositional(positional []string) {
	if len(positional) > 0 {
		fail(usagef("unexpected argument %q (only -compare takes a positional report path)", positional[0]))
	}
}

// usagef marks a bad flag value; fail prints the usage and exits 2 for
// those, 1 for runtime failures — a benchmark error, a gated comparison
// (the shared pmc command convention).
func usagef(format string, args ...any) error { return cli.Usagef(format, args...) }

func fail(err error) { cli.Fail("pmcbench", err) }

func runSuite(name string, reps int, jsonOut string, quiet bool) error {
	spec, err := pmc.BenchSuite(name)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	spec.Reps = reps
	if !quiet {
		spec.Progress = os.Stderr
	}
	report, err := pmc.BenchRun(spec)
	if err != nil {
		return err
	}
	if jsonOut == "" || jsonOut == "-" {
		return report.WriteJSON(os.Stdout)
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d entries to %s\n", len(report.Entries), jsonOut)
	return nil
}

func runCompare(basePath, candPath string) error {
	base, err := pmc.BenchLoadReport(basePath)
	if err != nil {
		return err
	}
	cand, err := pmc.BenchLoadReport(candPath)
	if err != nil {
		return err
	}
	cmp, err := pmc.BenchCompare(base, cand)
	if err != nil {
		return err
	}
	fmt.Print(cmp)
	if !cmp.Ok() {
		return fmt.Errorf("%d gating failures vs %s", len(cmp.Failures()), basePath)
	}
	return nil
}
