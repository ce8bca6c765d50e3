// Package spec makes backend conformance compositional. Exhaustive
// whole-platform checking dies long before 1024 tiles; following
// RealityCheck's modular-specification approach, each backend instead
// carries a small declarative ordering spec — which Table I edges its
// protocol steps commit, expressed as data — and verification splits
// into two independently checkable halves:
//
//   - backend vs spec (CheckBackend): conform.CheckOpts drives the
//     backend at a fixed interface scale — a handful of tiles, or one
//     cluster pair for the hierarchical backends — so the cost grows
//     with threads-per-litmus, never with deployment size. It records
//     every perturbed run once: every simulated outcome must be
//     model-allowed, the recorder must accept every read, and every edge
//     of the recorder-lowered trace must be attributable to an
//     obligation the spec declares (CheckTrace, passed as the run's
//     trace check).
//   - spec vs model (VsModel): a pure data check that the spec is sound
//     (every declared obligation is a real Table I rule) and complete
//     (every Table I rule is committed by at least one protocol step).
//
// Together they compose: backend-vs-spec + spec-vs-model ⇒
// backend-vs-model, which is the property whole-platform conformance
// used to establish by brute force. A broken backend is caught by the
// first half (CheckOptions.Faults proves detection: a faulted backend
// keeps its name, so it is checked against its own spec), a broken spec
// by the second.
package spec

import (
	"fmt"

	"pmc/internal/core"
	"pmc/internal/rt"
)

// Step names one protocol mechanism of a backend implementation — the
// moving parts of Table II, at the granularity fault injection can break.
type Step string

// The protocol step vocabulary. A spec commits each Table I rule to the
// steps that implement it; FaultFor maps the breakable steps onto
// rt.FaultSet so a spec can name the fault that would falsify each of
// its own obligations.
const (
	// StepProgramOrder is the in-order tile pipeline: one core issues
	// its operations in program order, committing same-process edges.
	StepProgramOrder Step = "program-order"
	// StepMutex is the lock acquire/release pair behind entry_x/exit_x
	// (central lock words or the distributed lock service).
	StepMutex Step = "mutex"
	// StepUncached is direct SDRAM access with no local copy (nocc).
	StepUncached Step = "uncached-access"
	// StepEntryFetch invalidates/fetches fresh lines at scope entry
	// (swcc), so in-scope reads observe the releasing writer.
	StepEntryFetch Step = "entry-fetch"
	// StepExitWriteback writes dirty lines back and invalidates at
	// exit_x (swcc) — the visibility half of a release.
	StepExitWriteback Step = "exit-writeback"
	// StepROInvalidate drops read-only lines at exit_ro (swcc), so the
	// next entry refetches instead of reading a stale resident line.
	StepROInvalidate Step = "ro-invalidate"
	// StepFlushPost posts dirty data toward SDRAM on flush(). Flush
	// commits no Table I edge (it is a liveness hint, Section IV-D); it
	// appears in Spec.Liveness, not in commits.
	StepFlushPost Step = "flush-post"
	// StepLockTransfer carries the object's words on the lock handoff
	// (dsm/cdsm replica update).
	StepLockTransfer Step = "lock-transfer"
	// StepStageIn copies the object into local memory at scope entry
	// (spm/cspm).
	StepStageIn Step = "stage-in"
	// StepStageOut copies the staged object back at scope exit
	// (spm/cspm).
	StepStageOut Step = "stage-out"
	// StepFenceDrain blocks the core until outstanding memory traffic
	// has drained (fence()).
	StepFenceDrain Step = "fence-drain"
	// StepRouteCut is the adaptive backend's protocol switch at a scope
	// boundary — the consistent cut where per-object migration is safe.
	StepRouteCut Step = "route-cut"
)

// Obligation is one cell of Table I — an ordering edge a conforming
// backend must commit when the New operation executes after a matching
// Earlier one.
type Obligation struct {
	Earlier core.Kind
	New     core.Kind
	Ord     core.Ord
	// AnyProc mirrors the table's footnote: the release→acquire ≺S rule
	// matches releases of the location by any process.
	AnyProc bool
}

func (o Obligation) String() string {
	scope := "p"
	if o.AnyProc {
		scope = "*"
	}
	return fmt.Sprintf("%s→%s %s (%s)", o.Earlier, o.New, o.Ord, scope)
}

// ruleOb converts a Table I rule to its obligation.
func ruleOb(r core.Rule) Obligation {
	return Obligation{Earlier: r.Earlier, New: r.New, Ord: r.Ord, AnyProc: r.AnyProc}
}

// TableIObligations returns every Table I rule as an obligation, in table
// order — the completeness target for VsModel.
func TableIObligations() []Obligation {
	out := make([]Obligation, len(core.TableI))
	for i, r := range core.TableI {
		out[i] = ruleOb(r)
	}
	return out
}

// Commit declares that the named protocol steps together commit one
// obligation.
type Commit struct {
	Obligation
	By []Step
}

// Spec is one backend's declarative ordering specification.
type Spec struct {
	// Backend is the rt backend name the spec describes.
	Backend string
	// Clustered marks hierarchical backends (cdsm/cspm): their interface
	// scale is a cluster pair, not a flat tile row.
	Clustered bool
	// Commits maps every Table I obligation to the steps implementing it.
	Commits []Commit
	// Liveness lists steps required for progress rather than ordering —
	// breaking one livelocks pollers instead of violating an edge
	// (flush() is the canonical example, Section IV-D).
	Liveness []Step
}

// Committed returns the steps the spec declares for ob, or nil.
func (s *Spec) Committed(ob Obligation) []Step {
	for _, c := range s.Commits {
		if c.Obligation == ob {
			return c.By
		}
	}
	return nil
}

// Steps returns the deduplicated set of steps the spec mentions, in
// first-mention order.
func (s *Spec) Steps() []Step {
	seen := make(map[Step]bool)
	var out []Step
	add := func(st Step) {
		if !seen[st] {
			seen[st] = true
			out = append(out, st)
		}
	}
	for _, c := range s.Commits {
		for _, st := range c.By {
			add(st)
		}
	}
	for _, st := range s.Liveness {
		add(st)
	}
	return out
}

// VsModel is the spec-vs-model half of the compositional argument: the
// spec must be sound (every commit is a real Table I rule, ord and scope
// included, carried by at least one step) and complete (every Table I
// rule is committed). It returns one problem string per defect; an empty
// slice means the spec and the model agree edge for edge.
func VsModel(s *Spec) []string {
	var problems []string
	table := make(map[Obligation]bool, len(core.TableI))
	for _, r := range core.TableI {
		table[ruleOb(r)] = true
	}
	committed := make(map[Obligation]bool)
	for _, c := range s.Commits {
		if !table[c.Obligation] {
			problems = append(problems,
				fmt.Sprintf("spec %s: commit %s is not a Table I rule (unsound)", s.Backend, c.Obligation))
		}
		if len(c.By) == 0 {
			problems = append(problems,
				fmt.Sprintf("spec %s: commit %s names no protocol step", s.Backend, c.Obligation))
		}
		if committed[c.Obligation] {
			problems = append(problems,
				fmt.Sprintf("spec %s: commit %s declared twice", s.Backend, c.Obligation))
		}
		committed[c.Obligation] = true
	}
	for _, r := range core.TableI {
		if !committed[ruleOb(r)] {
			problems = append(problems,
				fmt.Sprintf("spec %s: Table I rule %s is committed by no step (incomplete)", s.Backend, ruleOb(r)))
		}
	}
	return problems
}

// FaultFor maps a protocol step to the rt fault that disables it, when
// the fault-injection harness models one. This is how a spec names the
// experiment that would falsify each of its obligations: inject the
// fault, and CheckBackend must report a divergence.
func FaultFor(st Step) (rt.FaultSet, bool) {
	switch st {
	case StepExitWriteback:
		return rt.FaultSet{SkipExitFlush: true}, true
	case StepROInvalidate:
		return rt.FaultSet{SkipROFlush: true}, true
	case StepFlushPost:
		return rt.FaultSet{SkipFlush: true}, true
	case StepLockTransfer:
		return rt.FaultSet{DropTransfer: true}, true
	}
	return rt.FaultSet{}, false
}
