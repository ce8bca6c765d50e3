// Package pmcd is the content-addressed simulation service: a long-running
// HTTP/JSON job server over the repo's deterministic engines (sweep,
// litmus, fuzz) with a bounded worker pool, a FIFO job queue with
// streaming progress, and a two-tier result store — an in-memory LRU over
// a content-addressed disk store.
//
// The serving story rests on one property every engine already proves:
// results are bit-deterministic. A sweep table merges in grid order for
// any worker count, a litmus exploration's outcomes are identical across
// engine modes, and a fuzz campaign reproduces from its printed seed. A
// deterministic computation is identified by its inputs, so every result
// is cacheable under a fingerprint of (canonical job spec, code version):
// the first submission simulates, every later identical submission — from
// any number of clients — is answered from the store with the exact bytes
// the simulation produced. Concurrent identical submissions are
// single-flighted: one simulation runs, everyone shares its result.
//
// CI is the first client: the pmcd smoke job proves a resubmitted job is
// a byte-identical cache hit.
package pmcd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"

	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/noc"
	"pmc/internal/sweep"
)

// CodeVersion returns the build's code-version component for result
// fingerprints: the VCS revision the binary was built from (suffixed
// ".dirty" when the working tree had local modifications), or "dev" when
// no VCS stamp is available (tests, go run outside a repository). A server
// or store can override it (Config.CodeVersion, the -codeversion flag).
func CodeVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "dev"
	}
	if dirty {
		return rev + ".dirty"
	}
	return rev
}

// SweepJob declares a sweep-grid job: the declarative axes of a
// sweep.Spec plus the experiment scale. Zero axes expand to the sweep
// engine's defaults during normalization, so a spec that spells the
// defaults out and one that omits them share a fingerprint.
type SweepJob struct {
	Apps     []string `json:"apps"`
	Backends []string `json:"backends,omitempty"`
	Tiles    []int    `json:"tiles,omitempty"`
	Topos    []string `json:"topos,omitempty"`
	// Small selects the CI-sized app configurations (workloads.Scaled).
	Small bool `json:"small,omitempty"`
}

// LitmusJob declares an exhaustive litmus exploration of a cataloged
// program. The fingerprint uses the program's canonical (naming-invariant)
// fingerprint, not its catalog name.
type LitmusJob struct {
	Prog string `json:"prog"`
	// MaxStates overrides the state budget (0 = explorer default,
	// litmus.DefaultMaxStates). Workers never appears: results are
	// identical for any worker count.
	MaxStates int `json:"max_states,omitempty"`
	// Symmetry collapses states related by a program automorphism:
	// outcomes are unchanged, states shrink by the orbit factor.
	Symmetry bool `json:"symmetry,omitempty"`
}

// FuzzJob declares a seeded differential fuzzing campaign. The summary is
// worker-count-independent, so the campaign's identity is its seed and
// bounds.
type FuzzJob struct {
	Seed     int64    `json:"seed"`
	N        int      `json:"n"`
	Mode     string   `json:"mode,omitempty"`     // "" = mixed
	Backends []string `json:"backends,omitempty"` // nil = the paper's four
	Runs     int      `json:"runs,omitempty"`     // 0 = campaign default
}

// JobSpec is a job submission: exactly one kind set.
type JobSpec struct {
	Sweep  *SweepJob  `json:"sweep,omitempty"`
	Litmus *LitmusJob `json:"litmus,omitempty"`
	Fuzz   *FuzzJob   `json:"fuzz,omitempty"`
}

// Kind names the set job kind ("sweep", "litmus", "fuzz", or "" when
// none is set).
func (s JobSpec) Kind() string {
	switch {
	case s.Sweep != nil:
		return "sweep"
	case s.Litmus != nil:
		return "litmus"
	case s.Fuzz != nil:
		return "fuzz"
	}
	return ""
}

// Normalize validates the spec and expands every default, so that two
// spellings of the same computation canonicalize — and therefore
// fingerprint — identically. It returns a deep-copied spec; the input is
// not modified.
func (s JobSpec) Normalize() (JobSpec, error) {
	kinds := 0
	for _, set := range []bool{s.Sweep != nil, s.Litmus != nil, s.Fuzz != nil} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return JobSpec{}, fmt.Errorf("pmcd: job must set exactly one of sweep/litmus/fuzz (got %d)", kinds)
	}
	switch {
	case s.Sweep != nil:
		j := *s.Sweep
		spec, err := j.sweepSpec()
		if err != nil {
			return JobSpec{}, err
		}
		if err := spec.Validate(); err != nil {
			return JobSpec{}, err
		}
		cs, err := spec.Canonical()
		if err != nil {
			return JobSpec{}, err
		}
		j.Apps, j.Backends, j.Tiles, j.Topos = cs.Apps, cs.Backends, cs.Tiles, cs.Topos
		return JobSpec{Sweep: &j}, nil
	case s.Litmus != nil:
		j := *s.Litmus
		if _, ok := litmus.ByName(j.Prog); !ok {
			return JobSpec{}, fmt.Errorf("pmcd: unknown litmus program %q", j.Prog)
		}
		if j.MaxStates < 0 {
			return JobSpec{}, fmt.Errorf("pmcd: negative litmus state budget %d", j.MaxStates)
		}
		if j.MaxStates == litmus.DefaultMaxStates {
			j.MaxStates = 0 // how existing fingerprints spell the default
		}
		return JobSpec{Litmus: &j}, nil
	default:
		j := *s.Fuzz
		if j.N <= 0 {
			return JobSpec{}, fmt.Errorf("pmcd: fuzz job needs a positive program count, got %d", j.N)
		}
		if j.Mode == "" {
			j.Mode = fuzz.ModeMixed.String()
		}
		mode, err := fuzz.ParseMode(j.Mode)
		if err != nil {
			return JobSpec{}, fmt.Errorf("pmcd: %w", err)
		}
		j.Mode = mode.String()
		if len(j.Backends) == 0 {
			j.Backends = fuzz.DefaultBackends
		}
		j.Backends = append([]string(nil), j.Backends...)
		if j.Runs == 0 {
			j.Runs = 3
		}
		if j.Runs < 0 {
			return JobSpec{}, fmt.Errorf("pmcd: negative fuzz run count %d", j.Runs)
		}
		return JobSpec{Fuzz: &j}, nil
	}
}

// sweepSpec builds the sweep engine spec for a sweep job's declarative
// axes (Make is attached separately at run time — the grid identity is the
// axes plus Small, never the closure).
func (j *SweepJob) sweepSpec() (*sweep.Spec, error) {
	spec := &sweep.Spec{
		Apps:     j.Apps,
		Backends: j.Backends,
		Tiles:    j.Tiles,
	}
	for _, ts := range j.Topos {
		topo, err := noc.ParseTopology(ts)
		if err != nil {
			return nil, fmt.Errorf("pmcd: %w", err)
		}
		spec.Topos = append(spec.Topos, topo)
	}
	return spec, nil
}

// Fingerprint returns the content address of a job's result: the hex
// SHA-256 over a canonical encoding of (kind, normalized spec, code
// version). Two submissions collide exactly when they are the same
// computation on the same code:
//
//   - sweep jobs hash the canonical grid (defaults expanded, topologies
//     as canonical strings) plus the scale flag;
//   - litmus jobs hash litmus.ExploreFingerprint — the program's
//     naming-invariant fingerprint mixed with the engine configuration —
//     so a renamed catalog entry keeps its cache;
//   - fuzz jobs hash the normalized campaign bounds (seed first: a new
//     seed is a new computation).
//
// The code version salts everything: results computed by different code
// never alias, which is what makes serving stale-looking bytes safe.
func Fingerprint(spec JobSpec, codeVersion string) (string, error) {
	n, err := spec.Normalize()
	if err != nil {
		return "", err
	}
	var canon any
	switch {
	case n.Sweep != nil:
		canon = n.Sweep
	case n.Litmus != nil:
		prog, _ := litmus.ByName(n.Litmus.Prog)
		canon = struct {
			Explore   string `json:"explore"`
			MaxStates int    `json:"max_states"`
		}{litmus.ExploreFingerprint(prog, n.Litmus.Symmetry, n.Litmus.MaxStates), n.Litmus.MaxStates}
	default:
		canon = n.Fuzz
	}
	body, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("pmcd: canonical spec marshal: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "pmcd/v1\x00%s\x00", n.Kind())
	h.Write(body)
	fmt.Fprintf(h, "\x00%s", codeVersion)
	return hex.EncodeToString(h.Sum(nil)), nil
}
