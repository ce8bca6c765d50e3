// Package exp contains one runnable experiment per table and figure of the
// paper, plus the ablations DESIGN.md calls out. Every experiment writes a
// self-describing report (measured numbers next to the paper's reference
// values); `pmcsim -all` prints them all. Experiments that are one sweep
// grid plus assertions are declared as a grid (grid.go); the rest are code.
package exp

import (
	"fmt"
	"io"
	"sort"

	"pmc/internal/soc"
)

// Options selects the experiment scale.
type Options struct {
	// Tiles is the system size; 0 means the experiment's default (the
	// paper's 32 for the case studies).
	Tiles int
	// Scale is "small" (CI/test-sized) or "full" (paper-sized; also the
	// empty string).
	Scale string
	// Workers caps concurrent simulations in sweep-backed experiments:
	// 0 means GOMAXPROCS, 1 is sequential. Results are identical either
	// way.
	Workers int
}

// scaleNames are the accepted Options.Scale values ("" meaning full).
var scaleNames = []string{"small", "full"}

// validate rejects unknown scale names and negative tile counts: "full"
// used to be the silent fallback for any string, so a typo like "smalll"
// ran the expensive paper-scale configuration, and a negative tile count
// silently ran the default.
func (o Options) validate() error {
	if o.Tiles < 0 {
		return fmt.Errorf("exp: tile count %d must not be negative (0 = experiment default)", o.Tiles)
	}
	switch o.Scale {
	case "", "small", "full":
		return nil
	}
	return fmt.Errorf("exp: unknown scale %q (valid: %v)", o.Scale, scaleNames)
}

func (o Options) full() bool { return o.Scale != "small" }

func (o Options) tiles(def int) int {
	if o.Tiles > 0 {
		return o.Tiles
	}
	return def
}

// scaled picks a grid's tile sweep by scale; sweeps ignore Tiles.
func (o Options) scaled(small, full []int) []int {
	if o.full() {
		return full
	}
	return small
}

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	Run   func(w io.Writer, o Options) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment IDs.
func IDs() []string {
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// sysConfig builds the simulated system configuration for an experiment.
func sysConfig(tiles int) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Tiles = tiles
	return cfg
}

// RunByID runs one experiment, printing its banner first.
func RunByID(w io.Writer, id string, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	e, ok := ByID(id)
	if !ok {
		return fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
	if e.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", e.Paper)
	}
	fmt.Fprintln(w)
	return e.Run(w, o)
}

// RunAll runs every experiment in registration order.
func RunAll(w io.Writer, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	for _, e := range registry {
		if err := RunByID(w, e.ID, o); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// splashApps are the three SPLASH-2 substitutes of Fig. 8.
var splashApps = []string{"radiosity", "raytrace", "volrend"}
