// Package pmc is a Go reproduction of "Portable Memory Consistency for
// Software Managed Distributed Memory in Many-Core SoC" (Rutgers, Bekooij,
// Smit; IPPS 2013).
//
// PMC decouples an application from the memory consistency model of the
// hardware it runs on: the application assumes only a minimal, weak,
// synchronized memory model (five operations, four ordering relations) and
// makes every additional ordering it needs explicit through annotations —
// entry_x/exit_x, entry_ro/exit_ro, fence, flush. A runtime then implements
// those annotations on whatever memory architecture is at hand.
//
// The package exposes four layers:
//
//   - the formal model (Execution, the Table I rules and read semantics)
//     — the oracle everything else is tested against;
//   - a litmus explorer that enumerates all outcomes of small annotated
//     programs under the model;
//   - a deterministic cycle-level simulator of the paper's 32-core
//     MicroBlaze-style SoC: per-tile I/D caches, local dual-port memories,
//     a shared SDRAM bus, a write-only NoC, and distributed locks;
//   - the PMC runtime with one backend per architecture of the paper's
//     Table II (uncached/SC reference, software cache coherency, DSM over
//     the write-only NoC, scratch-pad staging) plus the paper's workloads
//     and every experiment of the evaluation section.
//
// Quickstart:
//
//	sys, _ := pmc.NewSystem(pmc.DefaultConfig())
//	r := pmc.NewRuntime(sys, pmc.SWCC())
//	x := r.Alloc("X", 4)
//	r.Spawn(0, "writer", func(c *pmc.Ctx) {
//	    c.EntryX(x)
//	    c.Write32(x, 0, 42)
//	    c.ExitX(x)
//	})
//	_ = r.Run()
//
// See the examples/ directory for complete programs and DESIGN.md for the
// system inventory.
package pmc

import (
	"io"

	"pmc/internal/conform"
	"pmc/internal/core"
	"pmc/internal/exp"
	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/noc"
	"pmc/internal/pmcd"
	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/spec"
	"pmc/internal/sweep"
	"pmc/internal/trace"
	"pmc/internal/workloads"
)

// ---- Formal model (Section IV) ----

// Execution is a growing PMC dependency graph (Definition 1).
type Execution = core.Execution

// NewExecution returns an initialized, empty execution.
func NewExecution() *Execution { return core.NewExecution() }

// RenderTableI prints the ordering-rule table in the paper's layout.
func RenderTableI() string { return core.RenderTableI() }

// ---- Litmus exploration ----

type (
	// LitmusProgram is a small annotated multi-threaded program.
	LitmusProgram = litmus.Program
	// LitmusResult is the outcome set of an exhaustive exploration.
	LitmusResult = litmus.Result
	// LitmusExplorer is a configurable exploration: set Workers (0 =
	// GOMAXPROCS, 1 = sequential), Symmetry (orbit collapse) and
	// MaxStates before Run. Every mode produces identical outcomes.
	LitmusExplorer = litmus.Explorer
)

// Explore enumerates all interleavings and read choices of p under PMC
// with the default engine (GOMAXPROCS walkers over one memo table).
func Explore(p LitmusProgram) (*LitmusResult, error) { return litmus.Explore(p) }

// NewLitmusExplorer prepares a configurable exploration of p.
func NewLitmusExplorer(p LitmusProgram) *LitmusExplorer { return litmus.NewExplorer(p) }

// LitmusCatalog returns the paper's example programs.
func LitmusCatalog() []LitmusProgram { return litmus.Catalog() }

// LitmusByName looks up a cataloged program.
func LitmusByName(name string) (LitmusProgram, bool) { return litmus.ByName(name) }

// ---- Conformance and fuzzing ----

type (
	// FuzzConfig drives a seeded differential fuzzing campaign.
	FuzzConfig = fuzz.Config
	// FuzzGenConfig bounds the random litmus program generator.
	FuzzGenConfig = fuzz.GenConfig
	// FuzzMode selects the annotation discipline of generated programs.
	FuzzMode = fuzz.Mode
	// FuzzSummary is the result of a campaign.
	FuzzSummary = fuzz.Summary
	// FaultSet selects runtime protocol steps to disable (fault
	// injection): set it as FuzzConfig.Faults or SpecCheckOptions.Faults.
	// Locks stay intact, so failures are coherence failures.
	FaultSet = rt.FaultSet
)

// MixedBackend is the pseudo-backend name conformance checks and fuzz
// campaigns accept alongside real backend names: the program's per-object
// placement routes each object to its named backend (unplaced objects run
// on nocc).
const MixedBackend = conform.MixedBackend

// FuzzRun executes a seeded differential fuzzing campaign: generated
// programs are explored under the model and executed on every configured
// backend; violating programs are shrunk to minimal counterexamples.
func FuzzRun(cfg FuzzConfig) (*FuzzSummary, error) { return fuzz.Run(cfg) }

// ParseFuzzMode converts "drf", "racy" or "mixed".
func ParseFuzzMode(s string) (FuzzMode, error) { return fuzz.ParseMode(s) }

// ParseFaultSet parses a "+"-separated fault list (see rt.FaultSet).
func ParseFaultSet(s string) (FaultSet, error) { return rt.ParseFaultSet(s) }

// ---- Compositional ordering specs ----

type (
	// OrderingSpec is one backend's declarative ordering specification:
	// which Table I edges each of its protocol steps commits, as data.
	OrderingSpec = spec.Spec
	// SpecCheckOptions configures SpecCheckBackend.
	SpecCheckOptions = spec.CheckOptions
	// SpecResult is the outcome of checking one backend against its spec.
	SpecResult = spec.Result
)

// SpecForBackend returns the authored ordering spec of a backend.
func SpecForBackend(name string) (OrderingSpec, error) { return spec.ForBackend(name) }

// SpecCheckBackend drives the backend at fixed interface scale against
// its spec — the compositional half of backend-vs-model conformance,
// with cost independent of the platform size being certified.
func SpecCheckBackend(s OrderingSpec, opt SpecCheckOptions) (*SpecResult, error) {
	return spec.CheckBackend(s, opt)
}

// ---- Simulated system (Section V-B) ----

type (
	// Config describes the simulated SoC. A cluster NoC topology
	// (ParseTopology's "cluster:<local>x<global>") groups its tiles into
	// Tiles/<local> clusters, at most 1,024; any other topology is one
	// flat cluster.
	Config = soc.Config
	// System is an assembled simulated SoC.
	System = soc.System
	// Time is simulated cycles.
	Time = sim.Time
)

// DefaultConfig is the paper's 32-tile system.
func DefaultConfig() Config { return soc.DefaultConfig() }

// MinSDRAMBytes returns the smallest Config.SDRAMBytes whose memory map
// holds the per-tile private heaps of a system with the given tile count;
// the 32 MiB default covers the paper's 32 tiles but stops at 48. RunApp,
// Sweep and the other app runners raise a smaller SDRAMBytes to it.
func MinSDRAMBytes(tiles int) int { return rt.MinSDRAMBytes(tiles) }

// NewSystem builds a simulated SoC.
func NewSystem(cfg Config) (*System, error) { return soc.New(cfg) }

// ---- PMC runtime and annotations (Section V-A / Table II) ----

type (
	// Runtime binds a system and a backend.
	Runtime = rt.Runtime
	// Ctx is a worker's annotation API.
	Ctx = rt.Ctx
	// Object is an annotated shared object.
	Object = rt.Object
	// Backend implements the annotations for one architecture,
	// including the ranged data path (ReadRange/WriteRange).
	Backend = rt.Backend
	// ScopeRO is the Fig. 10 scoped read-only helper.
	ScopeRO = rt.ScopeRO
	// ScopeX is the Fig. 10 scoped exclusive helper.
	ScopeX = rt.ScopeX
	// Trace records runtime events for Chrome-trace export.
	Trace = trace.Trace
)

// NewRuntime assembles a runtime over sys with the given backend.
func NewRuntime(sys *System, b Backend) *Runtime { return rt.New(sys, b) }

// Backend constructors; BackendByName reaches every backend.
var (
	// SWCC is software cache coherency with eager release.
	SWCC = rt.SWCC
	// SPM is scratch-pad staging.
	SPM = rt.SPM
)

// BackendNames lists the selectable backends.
func BackendNames() []string { return append([]string(nil), rt.Backends...) }

// BackendByName returns a backend by name.
func BackendByName(name string) (Backend, error) { return rt.ByName(name) }

// NewScopeRO opens a read-only scope (entry_ro); close with Close.
func NewScopeRO(c *Ctx, o *Object) ScopeRO { return rt.NewScopeRO(c, o) }

// NewScopeX opens an exclusive scope (entry_x); close with Close.
func NewScopeX(c *Ctx, o *Object) ScopeX { return rt.NewScopeX(c, o) }

// ---- Workloads and experiments (Section VI) ----

type (
	// App is a runnable workload.
	App = workloads.App
	// Result is one measured run.
	Result = workloads.Result
	// Experiment is one table/figure reproduction.
	Experiment = exp.Experiment
	// ExpOptions selects experiment scale.
	ExpOptions = exp.Options
)

// Workload constructors at the paper's evaluation sizes; AppByName
// reaches every workload.
var (
	NewMFifo     = workloads.DefaultMFifo
	NewMotionEst = workloads.DefaultMotionEst
	NewMsgPass   = workloads.DefaultMsgPass
)

// SetOfferedLoad overrides the offered load (requests per kilocycle) on a
// service workload instance; it reports false for closed-loop workloads,
// which have no load knob.
func SetOfferedLoad(app App, load float64) bool { return workloads.SetLoad(app, load) }

// RunApp executes a workload on a fresh system with the named backend.
func RunApp(app App, cfg Config, backend string) (*Result, error) {
	return workloads.Run(app, cfg, backend)
}

// RunAppPlaced is RunApp with a per-object placement table: object names
// (exact, or trailing-* prefix globs) route to named backends, everything
// else to the run's default backend.
func RunAppPlaced(app App, cfg Config, backend string, place map[string]string) (*Result, error) {
	return workloads.RunPlaced(app, cfg, backend, place)
}

// RunAppTraced is RunApp with an event tracer attached. The trace keeps
// the first 1M events and counts the rest in Trace.Dropped.
func RunAppTraced(app App, cfg Config, backend string) (*Result, *Trace, error) {
	return workloads.RunTraced(app, cfg, backend)
}

// AppByName returns a fresh workload instance by name (see AppNames).
func AppByName(name string) (App, bool) { return workloads.ByName(name) }

// AppNames lists the runnable workloads.
func AppNames() []string { return append([]string(nil), workloads.Names...) }

// ---- Parallel sweeps ----

type (
	// SweepSpec declares a sweep grid: apps × backends × tile counts ×
	// NoC topologies, run concurrently on a worker pool with results
	// merged in deterministic grid order.
	SweepSpec = sweep.Spec
	// SweepCell identifies one grid point.
	SweepCell = sweep.Cell
	// SweepTable is a completed sweep; WriteJSON and WriteCSV emit it.
	SweepTable = sweep.Table
	// NoCTopology selects the interconnect shape of a swept system.
	NoCTopology = noc.Topology
)

// NoC topologies for SweepSpec.Topos. Cluster topologies are parsed by
// ParseTopology from "cluster:<local>x<global>" specs.
var (
	TopoRing = noc.TopoRing
	TopoMesh = noc.TopoMesh
)

// Sweep runs every cell of the grid on a worker pool (Workers=0 means
// GOMAXPROCS) and returns the merged table. The emitted bytes are
// identical for any worker count: each cell's simulation is deterministic
// and rows are merged by grid index.
func Sweep(spec SweepSpec) (*SweepTable, error) { return sweep.Run(spec) }

// ParseTopology converts "ring", "mesh" or "cluster:<local>x<global>" to a
// NoCTopology.
func ParseTopology(s string) (NoCTopology, error) { return noc.ParseTopology(s) }

// ScaledApp is AppByName with an optional CI-sized configuration (the
// "small" experiment scale).
func ScaledApp(name string, small bool) (App, bool) { return workloads.Scaled(name, small) }

// ---- Serving results (pmcd) ----

type (
	// PmcdConfig configures the content-addressed simulation service:
	// worker-pool size, job-queue depth, the two-tier result store, and
	// the fingerprint code-version component.
	PmcdConfig = pmcd.Config
	// PmcdServer is the long-running HTTP/JSON job service over the
	// sweep/litmus/fuzz engines.
	PmcdServer = pmcd.Server
	// PmcdClient is the thin HTTP client of the job service.
	PmcdClient = pmcd.Client
	// PmcdJobSpec is a job submission: exactly one kind set.
	PmcdJobSpec = pmcd.JobSpec
	// PmcdSweepJob declares a sweep-grid job.
	PmcdSweepJob = pmcd.SweepJob
	// PmcdLitmusJob declares an exhaustive litmus exploration job.
	PmcdLitmusJob = pmcd.LitmusJob
	// PmcdFuzzJob declares a seeded differential fuzz campaign job.
	PmcdFuzzJob = pmcd.FuzzJob
	// PmcdJobStatus is the externally visible state of a job.
	PmcdJobStatus = pmcd.JobStatus
	// PmcdStore is the two-tier (memory LRU over content-addressed disk)
	// result store.
	PmcdStore = pmcd.Store
)

// NewPmcdServer assembles a job service (opening its result store) and
// starts the worker pool; Close it to drain.
func NewPmcdServer(cfg PmcdConfig) (*PmcdServer, error) { return pmcd.New(cfg) }

// NewPmcdClient returns a client for the job service at base
// (e.g. "http://localhost:8433").
func NewPmcdClient(base string) *PmcdClient { return pmcd.NewClient(base) }

// OpenPmcdStore opens a result store over dir ("" = memory-only) with an
// in-memory LRU tier of memEntries results (0 = 128).
func OpenPmcdStore(dir string, memEntries int) (*PmcdStore, error) {
	return pmcd.Open(dir, memEntries)
}

// Experiments returns every registered table/figure experiment.
func Experiments() []Experiment { return exp.All() }

// RunExperiment runs one experiment by ID (e.g. "fig8"), writing its report.
func RunExperiment(w io.Writer, id string, o ExpOptions) error {
	return exp.RunByID(w, id, o)
}

// RunAllExperiments reproduces every table and figure.
func RunAllExperiments(w io.Writer, o ExpOptions) error { return exp.RunAll(w, o) }
