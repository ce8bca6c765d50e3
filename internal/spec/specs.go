package spec

import (
	"fmt"

	"pmc/internal/core"
	"pmc/internal/rt"
)

// StepReplica is dsm-family in-scope access: reads and writes touch the
// tile's local replica, kept fresh by the lock transfer. (Declared here
// with the authored specs rather than the core vocabulary because no
// injectable fault models breaking it — the replica is the backend's
// storage, not a protocol action.)
const StepReplica Step = "replica-access"

// build authors one backend spec from its three step groups. Table I
// splits cleanly along the protocol's seams:
//
//   - the release→acquire ≺S rule (the only cross-process edge) is
//     committed by the sync steps — each protocol's heart;
//   - every rule touching a fence is committed by the fence steps;
//   - the remaining rules are same-process ≺ℓ/≺P edges, committed by the
//     in-order pipeline plus the backend's access mechanism (which is
//     what makes a same-process read actually observe the earlier write).
func build(backend string, clustered bool, access, sync, fence, liveness []Step) Spec {
	commits := make([]Commit, 0, len(core.TableI))
	for _, r := range core.TableI {
		ob := ruleOb(r)
		var by []Step
		switch {
		case r.Earlier == core.KRelease && r.New == core.KAcquire:
			by = sync
		case r.Earlier == core.KFence || r.New == core.KFence:
			by = fence
		default:
			by = append([]Step{StepProgramOrder}, access...)
		}
		commits = append(commits, Commit{Obligation: ob, By: by})
	}
	return Spec{Backend: backend, Clustered: clustered, Commits: commits, Liveness: liveness}
}

// ForBackend returns the authored ordering spec of a backend.
//
// The step attributions follow Table II's protocol descriptions:
//
//	nocc  — every access goes straight to SDRAM; the mutex alone orders
//	        scopes, and uncached access makes each edge globally visible
//	        the moment it commits.
//	swcc  — scope-cached: entry fetches fresh lines, exit writes dirty
//	        lines back, exit_ro invalidates so the next entry refetches;
//	        the ≺S edge is mutex + writeback on the releasing side +
//	        fetch/invalidate on the acquiring side. swcc-lazy defers the
//	        writeback but commits the same obligations at the same
//	        boundaries.
//	dsm   — each tile holds a replica; in-scope accesses are local, and
//	        the ≺S edge rides the data-carrying lock transfer.
//	spm   — objects stage into local memory for the scope; stage-out on
//	        exit and stage-in on entry carry the released values, under
//	        the same mutex. cdsm/cspm are the cluster-hierarchical
//	        variants: same steps, committed per cluster pair (Clustered
//	        selects the cluster-topology interface scale).
//	adaptive — routes each object to one of the protocols above and may
//	        switch at a scope boundary (the route-cut); its spec is the
//	        union of the mechanisms it can delegate to, plus the cut.
//
// flush() commits no Table I edge on any backend — it is the liveness
// hint of Section IV-D — so it appears in Liveness, never in Commits.
func ForBackend(name string) (Spec, error) {
	fence := []Step{StepProgramOrder, StepFenceDrain}
	switch name {
	case "nocc":
		return build("nocc", false,
			[]Step{StepUncached},
			[]Step{StepMutex, StepUncached},
			fence, nil), nil
	case "swcc", "swcc-lazy":
		s := build(name, false,
			[]Step{StepEntryFetch},
			[]Step{StepMutex, StepExitWriteback, StepEntryFetch, StepROInvalidate},
			fence,
			[]Step{StepFlushPost})
		return s, nil
	case "dsm", "cdsm":
		return build(name, name == "cdsm",
			[]Step{StepReplica},
			[]Step{StepMutex, StepLockTransfer},
			fence,
			[]Step{StepFlushPost}), nil
	case "spm", "cspm":
		return build(name, name == "cspm",
			[]Step{StepStageIn, StepStageOut},
			[]Step{StepMutex, StepStageOut, StepStageIn},
			fence,
			[]Step{StepFlushPost}), nil
	case "adaptive":
		return build("adaptive", false,
			[]Step{StepRouteCut, StepUncached, StepEntryFetch, StepReplica, StepStageIn, StepStageOut},
			[]Step{StepRouteCut, StepMutex, StepUncached, StepExitWriteback, StepEntryFetch,
				StepROInvalidate, StepLockTransfer, StepStageOut, StepStageIn},
			fence,
			[]Step{StepFlushPost}), nil
	}
	return Spec{}, fmt.Errorf("spec: no ordering spec for backend %q (have %v)", name, rt.Backends)
}
