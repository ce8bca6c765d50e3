package pmcd

import (
	"encoding/json"
	"strings"
	"testing"

	"pmc/internal/fuzz"
	"pmc/internal/rt"
)

func fp(t *testing.T, spec JobSpec, cv string) string {
	t.Helper()
	s, err := Fingerprint(spec, cv)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if len(s) != 64 || strings.ToLower(s) != s {
		t.Fatalf("fingerprint %q is not lowercase hex sha256", s)
	}
	return s
}

func sweepJob() JobSpec {
	return JobSpec{Sweep: &SweepJob{
		Apps: []string{"mfifo"}, Backends: []string{"dsm"},
		Tiles: []int{4}, Topos: []string{"ring"}, Small: true,
	}}
}

func litmusJob() JobSpec {
	return JobSpec{Litmus: &LitmusJob{Prog: "sb-drf"}}
}

func fuzzJob() JobSpec {
	return JobSpec{Fuzz: &FuzzJob{Seed: 1, N: 4}}
}

// Two spellings of the same computation must share an address: omitted
// axes and their spelled-out defaults run identically, so they must
// fingerprint identically.
func TestFingerprintDefaultsCollapse(t *testing.T) {
	implicit := JobSpec{Sweep: &SweepJob{Apps: []string{"mfifo"}, Tiles: []int{4}, Small: true}}
	explicit := JobSpec{Sweep: &SweepJob{
		Apps: []string{"mfifo"}, Backends: append([]string(nil), rt.Backends...),
		Tiles: []int{4}, Topos: []string{"ring"}, Small: true,
	}}
	if a, b := fp(t, implicit, "cv"), fp(t, explicit, "cv"); a != b {
		t.Errorf("default axes vs explicit defaults diverge: %s vs %s", a, b)
	}

	fzImplicit := JobSpec{Fuzz: &FuzzJob{Seed: 7, N: 5}}
	fzExplicit := JobSpec{Fuzz: &FuzzJob{
		Seed: 7, N: 5, Mode: fuzz.ModeMixed.String(),
		Backends: append([]string(nil), fuzz.DefaultBackends...), Runs: 3,
	}}
	if a, b := fp(t, fzImplicit, "cv"), fp(t, fzExplicit, "cv"); a != b {
		t.Errorf("fuzz defaults vs explicit defaults diverge: %s vs %s", a, b)
	}
}

// Every identity component — config axis, program, seed, engine knob,
// code version — must move the address. This is the acceptance property
// of the cache key: a stale hit is impossible because any input change
// changes the key.
func TestFingerprintKeyChanges(t *testing.T) {
	base := map[string]string{
		"sweep":  fp(t, sweepJob(), "cv"),
		"litmus": fp(t, litmusJob(), "cv"),
		"fuzz":   fp(t, fuzzJob(), "cv"),
	}
	seen := map[string]string{}
	for name, f := range base {
		if prev, dup := seen[f]; dup {
			t.Fatalf("kinds %s and %s share fingerprint %s", prev, name, f)
		}
		seen[f] = name
	}

	variants := map[string]JobSpec{
		"sweep tiles":     {Sweep: &SweepJob{Apps: []string{"mfifo"}, Backends: []string{"dsm"}, Tiles: []int{8}, Topos: []string{"ring"}, Small: true}},
		"sweep app":       {Sweep: &SweepJob{Apps: []string{"msgpass"}, Backends: []string{"dsm"}, Tiles: []int{4}, Topos: []string{"ring"}, Small: true}},
		"sweep backend":   {Sweep: &SweepJob{Apps: []string{"mfifo"}, Backends: []string{"nocc"}, Tiles: []int{4}, Topos: []string{"ring"}, Small: true}},
		"sweep topo":      {Sweep: &SweepJob{Apps: []string{"mfifo"}, Backends: []string{"dsm"}, Tiles: []int{4}, Topos: []string{"mesh"}, Small: true}},
		"sweep scale":     {Sweep: &SweepJob{Apps: []string{"mfifo"}, Backends: []string{"dsm"}, Tiles: []int{4}, Topos: []string{"ring"}}},
		"litmus program":  {Litmus: &LitmusJob{Prog: "corr"}},
		"litmus engine":   {Litmus: &LitmusJob{Prog: "sb-drf", Tree: true}},
		"litmus budget":   {Litmus: &LitmusJob{Prog: "sb-drf", MaxStates: 1000}},
		"litmus symmetry": {Litmus: &LitmusJob{Prog: "sb-drf", Symmetry: true}},
		"fuzz seed":       {Fuzz: &FuzzJob{Seed: 2, N: 4}},
		"fuzz n":          {Fuzz: &FuzzJob{Seed: 1, N: 5}},
		"fuzz mode":       {Fuzz: &FuzzJob{Seed: 1, N: 4, Mode: "racy"}},
		"fuzz runs":       {Fuzz: &FuzzJob{Seed: 1, N: 4, Runs: 2}},
	}
	for name, spec := range variants {
		f := fp(t, spec, "cv")
		if prev, dup := seen[f]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, f)
		}
		seen[f] = name
	}

	// The code version salts everything: the same job on different code
	// must never alias.
	for name, spec := range map[string]JobSpec{"sweep": sweepJob(), "litmus": litmusJob(), "fuzz": fuzzJob()} {
		if a, b := fp(t, spec, "cv"), fp(t, spec, "cv2"); a == b {
			t.Errorf("%s fingerprint ignores the code version", name)
		}
	}
}

func TestFingerprintRejectsBadSpecs(t *testing.T) {
	bad := map[string]JobSpec{
		"empty":           {},
		"two kinds":       {Litmus: &LitmusJob{Prog: "sb-drf"}, Fuzz: &FuzzJob{Seed: 1, N: 1}},
		"no apps":         {Sweep: &SweepJob{}},
		"unknown app":     {Sweep: &SweepJob{Apps: []string{"nope"}}},
		"unknown backend": {Sweep: &SweepJob{Apps: []string{"mfifo"}, Backends: []string{"nope"}}},
		"bad tile count":  {Sweep: &SweepJob{Apps: []string{"mfifo"}, Tiles: []int{0}}},
		"bad topology":    {Sweep: &SweepJob{Apps: []string{"mfifo"}, Topos: []string{"hypercube"}}},
		"unknown program": {Litmus: &LitmusJob{Prog: "nope"}},
		"negative budget": {Litmus: &LitmusJob{Prog: "sb-drf", MaxStates: -1}},
		"tree symmetry":   {Litmus: &LitmusJob{Prog: "sb-drf", Tree: true, Symmetry: true}},
		"fuzz no count":   {Fuzz: &FuzzJob{Seed: 1}},
		"fuzz bad mode":   {Fuzz: &FuzzJob{Seed: 1, N: 1, Mode: "nope"}},
	}
	for name, spec := range bad {
		if _, err := Fingerprint(spec, "cv"); err == nil {
			t.Errorf("%s: Fingerprint accepted a malformed spec", name)
		}
	}
}

// FuzzJobSpec: Normalize must be idempotent on every spec Fingerprint
// accepts. Its output is a valid spec, and fingerprinting it again gives
// the same address — otherwise a client resubmitting the canonical form
// it was served would miss the store or be refused.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"sweep":{"apps":["mfifo","msgpass"],"backends":["dsm","nocc"],"tiles":[4,8],"topos":["ring","mesh"],"small":true}}`,
		`{"sweep":{"apps":["kvstore"],"backends":["cdsm"],"tiles":[16],"topos":["cluster:4xring"]}}`,
		`{"litmus":{"prog":"sb-drf","tree":true,"max_states":1000}}`,
		`{"litmus":{"prog":"iriw-sym3","symmetry":true}}`,
		`{"fuzz":{"seed":7,"n":5,"mode":"drf","backends":["nocc","mixed"],"runs":2}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		fp1, err := Fingerprint(spec, "cv")
		if err != nil {
			return
		}
		n, err := spec.Normalize()
		if err != nil {
			t.Fatalf("Fingerprint accepted %s but Normalize failed: %v", data, err)
		}
		fp2, err := Fingerprint(n, "cv")
		if err != nil {
			t.Fatalf("normalized form of %s is refused: %v", data, err)
		}
		if fp1 != fp2 {
			t.Fatalf("normalizing %s moved its fingerprint: %s vs %s", data, fp1, fp2)
		}
	})
}
