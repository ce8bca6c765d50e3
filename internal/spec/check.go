package spec

import (
	"fmt"
	"strings"

	"pmc/internal/conform"
	"pmc/internal/core"
	"pmc/internal/litmus"
	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
)

// InterfaceTiles is the fixed simulation scale of the backend-vs-spec
// check: enough tiles for every interface program's threads, and — for
// clustered backends — two clusters, so every protocol step (including
// the cross-cluster ones) is exercised. The deployment being certified
// never changes this; that independence is the whole point of checking
// against the interface instead of the platform.
const InterfaceTiles = 4

// interfaceMaxCycles bounds each interface run. The programs are tiny, so
// a healthy run finishes orders of magnitude earlier; a fault-livelocked
// poller fails fast instead of burning the default simulation budget.
const interfaceMaxCycles = 2_000_000

// Work measures what a check actually cost. It is a function of the spec
// and the interface programs only; every simulation runs at
// InterfaceTiles.
type Work struct {
	// Programs is the number of litmus programs driven.
	Programs int
	// ModelStates is the summed explorer state count across programs.
	ModelStates int
	// SimRuns is the number of perturbed simulator runs.
	SimRuns int
}

// Divergence is one way the backend (or its spec) departed from the
// model: a conform.Finding of the named interface program, or of
// "(spec)" when the spec itself fails VsModel (Kind "spec").
type Divergence struct {
	Program string
	conform.Finding
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s [%s]: %s", d.Program, d.Kind, d.Finding)
}

// Result is the outcome of checking one backend against its spec.
type Result struct {
	Backend     string
	Work        Work
	Divergences []Divergence
}

// Ok reports conformance: the spec matches the model and every simulated
// behavior is attributable to it.
func (r *Result) Ok() bool { return len(r.Divergences) == 0 }

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s vs spec: %d programs, %d model states, %d runs at %d tiles",
		r.Backend, r.Work.Programs, r.Work.ModelStates, r.Work.SimRuns, InterfaceTiles)
	if r.Ok() {
		b.WriteString("; conforms")
	} else {
		fmt.Fprintf(&b, "; %d DIVERGENCES", len(r.Divergences))
		for _, d := range r.Divergences {
			fmt.Fprintf(&b, "\n  %s", d)
		}
	}
	return b.String()
}

// CheckOptions configures CheckBackend beyond the spec.
type CheckOptions struct {
	// Runs is the number of perturbed simulations per program (default 8).
	Runs int
	// Faults disables the selected protocol steps of the spec's backend
	// (see conform.Options.Faults), for checking a fault-injected
	// implementation against its own spec. The zero value injects nothing.
	Faults rt.FaultSet
}

// InterfacePrograms is the default conformance matrix: the paper's
// annotated Fig. 5, an unsynchronized 3-thread IRIW, both single-location
// coherence shapes, and block-payload message passing. Together they
// exercise every Table I rule class (≺ℓ, ≺P, the cross-process ≺S, and
// fences) within InterfaceTiles threads.
func InterfacePrograms() []litmus.Program {
	return []litmus.Program{
		litmus.Fig5Annotated(),
		litmus.IRIW3(),
		litmus.CoRW(),
		litmus.CoWR(),
		litmus.MPBlock(),
	}
}

// interfaceConfig builds the fixed-size system template: a flat
// InterfaceTiles-row for flat backends, two clusters of two for
// hierarchical ones (so intra- and inter-cluster protocol paths both
// run).
func interfaceConfig(clustered bool) (*soc.Config, error) {
	cfg := soc.DefaultConfig()
	if clustered {
		topo, err := noc.ParseTopology("cluster:2xring")
		if err != nil {
			return nil, err
		}
		topo.Local = 2
		cfg.NoC.Topology = topo
	}
	return &cfg, nil
}

// CheckBackend is the backend-vs-spec half of the compositional argument.
// It first re-validates the spec against the model (a broken spec voids
// the run, and is reported rather than silently certified), then drives
// every program on the simulated backend at interface scale through one
// traced conform.CheckOpts call: each run's outcome must be
// model-allowed, the recorder must accept every read, and every edge of
// the recorder-lowered trace must be committed by a declared obligation
// (CheckTrace).
func CheckBackend(s Spec, opt CheckOptions) (*Result, error) {
	runs := opt.Runs
	if runs <= 0 {
		runs = 8
	}
	res := &Result{Backend: s.Backend}
	for _, p := range VsModel(&s) {
		res.Divergences = append(res.Divergences, Divergence{"(spec)", conform.Finding{Kind: "spec", Detail: p}})
	}
	if !res.Ok() {
		// Simulating against a spec that disagrees with the model proves
		// nothing either way; stop at the data check.
		return res, nil
	}
	base, err := interfaceConfig(s.Clustered)
	if err != nil {
		return nil, err
	}
	copt := conform.Options{
		Tiles:     InterfaceTiles,
		Runs:      runs,
		MaxCycles: interfaceMaxCycles,
		Base:      base,
		Faults:    opt.Faults,
		Trace:     func(exec *core.Execution) []string { return CheckTrace(exec, s) },
	}
	for _, p := range InterfacePrograms() {
		model, err := litmus.Explore(conform.EffectiveProgram(p))
		if err != nil {
			return nil, err
		}
		res.Work.Programs++
		res.Work.ModelStates += model.States
		copt.Model = model
		// A failed run is one of the report's findings, so only a check
		// that could not start is an error here.
		rep, err := conform.CheckOpts(p, s.Backend, copt)
		if rep == nil {
			return nil, err
		}
		res.Work.SimRuns += rep.Runs
		// Each divergence shape is reported once per program — a broken
		// protocol fails every perturbed run the same way, and one witness
		// (with its seed) is what a human needs.
		seen := make(map[string]bool)
		for _, f := range rep.Findings {
			if key := f.Kind + "\x00" + f.String(); !seen[key] {
				seen[key] = true
				res.Divergences = append(res.Divergences, Divergence{p.Name, f})
			}
		}
	}
	return res, nil
}

// CheckTrace attributes every edge of a recorder-lowered execution to a
// Table I rule committed by at least one of the given specs (callers
// checking a mixed-backend run pass every spec whose protocol handled
// some location — union semantics). It returns one problem per
// unattributable edge; nil means the trace is fully covered by the
// declared obligations.
//
// Matching mirrors Execution.Exec: the per-location init op stands in for
// both an earlier write and an earlier release of any process, and its
// local edges are upgraded to ≺P (so a rule declaring ≺ℓ covers the
// upgraded edge).
func CheckTrace(exec *core.Execution, specs ...Spec) []string {
	if exec == nil {
		return nil
	}
	var problems []string
	ops := exec.Ops()
	for id := range ops {
		for _, e := range exec.Out(id) {
			if !committedBy(ops[e.From], ops[e.To], e.Ord, specs) {
				problems = append(problems,
					fmt.Sprintf("edge %v —%v→ %v committed by no declared obligation", ops[e.From], e.Ord, ops[e.To]))
			}
		}
	}
	return problems
}

// committedBy reports whether some Table I rule matches the edge and is
// committed (with at least one step) by some spec.
func committedBy(from, to *core.Op, ord core.Ord, specs []Spec) bool {
	for _, r := range core.TableI {
		if r.New != to.Kind {
			continue
		}
		if from.Kind != r.Earlier && !(from.IsInit && (r.Earlier == core.KWrite || r.Earlier == core.KRelease)) {
			continue
		}
		if r.Ord != ord && !(from.IsInit && r.Ord == core.OrdLocal && ord == core.OrdProgram) {
			continue
		}
		if !r.AnyProc && !from.IsInit && from.Proc != to.Proc {
			continue
		}
		ob := ruleOb(r)
		for i := range specs {
			if len(specs[i].Committed(ob)) > 0 {
				return true
			}
		}
	}
	return false
}
