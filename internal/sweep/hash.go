package sweep

import "fmt"

// Canonical grids. A sweep's output is a deterministic function of its
// declarative grid — every cell simulation is seeded and merged in grid
// order — so on a fixed base configuration the grid's axes, with every
// default expanded, identify the result: a nil Backends axis and an
// explicit list of every backend run identically. pmcd's Normalize copies
// these axes into a sweep job (whose base configuration is fixed), and
// its Fingerprint hashes that normalized job. Specs carrying code (a Make
// hook) are refused — a closure's behavior is invisible to any encoding
// of the struct, and encoding the rest would silently conflate different
// grids.

// CanonicalSpec is the declarative identity of a sweep grid's axes with
// every default expanded.
type CanonicalSpec struct {
	Apps     []string
	Backends []string
	Tiles    []int
	Topos    []string
}

// Canonical returns the spec's canonical declarative axes, or an error for
// specs that carry code: a Make hook makes the grid's behavior invisible
// to any encoding.
func (s *Spec) Canonical() (*CanonicalSpec, error) {
	if s.Make != nil {
		return nil, fmt.Errorf("sweep: spec with a Make hook is not content-addressable")
	}
	backends, tiles, topos := s.axes()
	cs := &CanonicalSpec{
		Apps:     append([]string(nil), s.Apps...),
		Backends: append([]string(nil), backends...),
		Tiles:    append([]int(nil), tiles...),
	}
	for _, t := range topos {
		cs.Topos = append(cs.Topos, t.String())
	}
	return cs, nil
}
