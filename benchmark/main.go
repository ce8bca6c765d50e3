// Command benchmark is the repository's benchmark: four workloads that
// drive the simulator, the verification stack and the pmcd job service
// through their public functions. An untraced run reports the end-to-end
// metrics; a separate traced run re-executes the engines' steps with a
// span around every call into a layer, takes a CPU profile, and reports
// the per-layer metrics. BENCHMARK.json at the repository root declares
// every workload and metric; README.md explains them.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload sweep-flat --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out .bench_build/a1.json
//	bash benchmark/run.sh --compare a1.json a2.json a3.json vs b1.json b2.json b3.json
//
// A single-workload run prints its metrics by name with their units and,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. It exits non-zero when an
// output check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string // Chrome-trace file of a traced run ("" writes none)
	workDir  string // where pmcd stores are created
	short    bool   // tiny inputs, for the package's tests
}

// workload is one benchmark workload.
type workload struct {
	name string
	// rate is how many units of work (sweep passes, programs, jobs) the
	// workload does per second on the reference machine: two vCPUs of an
	// Intel Xeon virtual machine. A run does a fixed amount of work, rate
	// × --seconds units, so that it measures for about --seconds there,
	// while its work, memory and exact counts do not depend on how fast
	// the machine happens to be during the run.
	rate float64
	// tail is the percentile op_ms_tail reports. It is fixed per
	// workload, so runs compare like with like, and chosen so that a run
	// of the default length has at least ten ops beyond it (runs that do
	// not are warned about). The fuzz campaign's is p90: its p95 falls
	// where program cost climbs steeply, so the programs a seed happens to
	// draw moved it by half as much again.
	tail float64
	run  func(r *run) error
}

var workloadList = []workload{
	{name: "sweep-flat", rate: 0.45, tail: 0.95, run: runSweepFlat},
	{name: "sweep-1024", rate: 0.4, tail: 0.95, run: runSweep1024},
	{name: "fuzz-campaign", rate: 66, tail: 0.90, run: runFuzzCampaign},
	{name: "pmcd-mixed", rate: 1900, tail: 0.99, run: runPmcdMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is the state of one workload run: what it attempted, what failed,
// and the metrics it measured.
type run struct {
	cfg       config
	w         workload
	m         metrics
	attempted int
	failed    int
	problems  []string // the first failed checks, for the report
	notes     []string // human-readable context printed beside the metrics
}

// fail records n failed operations and why.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// units is how many units of work each measured phase does: the whole
// run untraced, half of it in each phase of a traced run.
func (r *run) units() int {
	s := r.cfg.seconds
	if r.cfg.traced {
		s /= 2
	}
	return max(1, int(math.Round(r.w.rate*s)))
}

// endToEnd records the end-to-end metrics of an untraced run. lat holds
// one latency per op.
func (r *run) endToEnd(setups []time.Duration, lat []time.Duration, wall time.Duration) {
	n := len(lat)
	s := sortedCopy(lat)
	r.m.set("setup_s", median(setups).Seconds(), "s")
	r.m.set("ops_per_s", ratio(float64(n), wall.Seconds()), "1/s")
	r.m.set("op_ms_p50", quantile(s, 0.5), "ms")
	r.m.set("op_ms_tail", quantile(s, r.w.tail), "ms")
	r.note("%d ops in %.2f s; op_ms_tail is p%g of %d samples; setup is the median of %d", n, wall.Seconds(), 100*r.w.tail, n, len(setups))
	if q := tailQuantile(n); q < r.w.tail {
		r.note("WARNING: fewer than ten of %d samples lie beyond p%g; run longer", n, 100*r.w.tail)
	}
}

// execute runs one workload and returns its completed result.
func execute(cfg config, spec *benchSpec) (*result, *run, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, w: w, m: metrics{}}
	rss := sampleRSS()
	runErr := w.run(r)
	rssMB, err := rss.stop()
	if err := errors.Join(runErr, err); err != nil {
		return nil, r, err
	}
	if !cfg.traced {
		r.m.set("rss_mb", rssMB, "MB")
	}
	m, err := spec.complete(r.m, cfg.traced)
	if err != nil {
		return nil, r, err
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, r, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: sweep-flat, sweep-1024, fuzz-campaign, pmcd-mixed, or all")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 20, "sizes the run's work to about this many seconds on the reference machine")
		traceFlag    = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		traceOut     = flag.String("trace-out", "", "Chrome-trace file of a traced run (default .bench_build/<workload>.trace.json)")
		out          = flag.String("out", "", "with --workload all: write the results file here")
		compareFlag  = flag.Bool("compare", false, "compare results files: --compare A.json... vs B.json...")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	switch {
	case *compareFlag:
		a, b, err := splitSides(flag.Args())
		if err != nil {
			fatal(err)
		}
		bad, err := compare(os.Stdout, spec, a, b)
		if err != nil {
			fatal(err)
		}
		if bad {
			os.Exit(1)
		}
	case *workloadName == "all":
		if err := runAll(spec, *seed, *seconds, *out); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		if *traceFlag != 0 && *traceFlag != 1 {
			fatal(fmt.Errorf("--trace must be 0 or 1"))
		}
		cfg := config{
			workload: *workloadName, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
			traceOut: *traceOut, workDir: ".bench_build",
		}
		if cfg.seconds <= 0 {
			fatal(fmt.Errorf("--seconds must be positive"))
		}
		if cfg.traced && cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(cfg.workDir, cfg.workload+".trace.json")
		}
		res, r, err := execute(cfg, spec)
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, r, res, spec)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printRun prints the metrics by name with their units, then the result
// object as the last line.
func printRun(f *os.File, r *run, res *result, spec *benchSpec) {
	w := bufio.NewWriter(f)
	mode := "untraced"
	if r.cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s, %g s): %d attempted, %d failed\n",
		r.cfg.workload, r.cfg.seed, mode, r.cfg.seconds, res.Attempted, res.Failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	decls := spec.EndToEnd
	if r.cfg.traced {
		decls = spec.PerLayer
	}
	for _, d := range decls {
		v := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
	}
	line, _ := json.Marshal(res)
	w.Write(line)
	w.WriteByte('\n')
	w.Flush()
}

// identity records what a result was measured on, so that results are
// compared only like with like.
type identity struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Date       string  `json:"date"`
}

func identify(seed int64, seconds float64) identity {
	id := identity{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", CPU: "unknown", Seed: seed, Seconds: seconds,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				id.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			id.Commit = rev + dirty
		}
	}
	return id
}

// resultsFile is what --workload all writes: one untraced and one traced
// result per workload, with the machine identity.
type resultsFile struct {
	Identity  identity          `json:"identity"`
	Workloads []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Workload string  `json:"workload"`
	Untraced *result `json:"untraced"`
	Traced   *result `json:"traced"`
}

// runAll runs every declared workload, untraced and then traced, each in
// its own child process so that RSS and garbage-collector state stay
// separate, and writes the results file.
func runAll(spec *benchSpec, seed int64, seconds float64, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultsFile{Identity: identify(seed, seconds)}
	failed := false
	for _, wl := range spec.Workloads {
		wr := workloadResults{Workload: wl.Name}
		for _, traced := range []bool{false, true} {
			res, err := runChild(exe, wl.Name, seed, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			failed = failed || !res.Correct
			if traced {
				wr.Traced = res
			} else {
				wr.Untraced = res
			}
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	if out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if failed {
		return errors.New("some output checks failed")
	}
	return nil
}

// runChild runs one workload in a child process, echoing its report, and
// parses the result from its last line.
func runChild(exe, name string, seed int64, seconds float64, traced bool) (*result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// splitSides splits "A... vs B..." into its two lists of files.
func splitSides(args []string) (a, b []string, err error) {
	for i, arg := range args {
		if arg == "vs" && i > 0 && i < len(args)-1 {
			return args[:i], args[i+1:], nil
		}
	}
	return nil, nil, errors.New("usage: --compare A.json... vs B.json...")
}
