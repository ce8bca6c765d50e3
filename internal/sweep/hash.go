package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
)

// Stable spec hashing. A sweep's output is a deterministic function of its
// declarative grid — every cell simulation is seeded and merged in grid
// order — so a canonical encoding of the grid identifies the result. The
// pmcd result store keys cached sweep tables by this identity (plus a
// code-version component it adds itself; see internal/pmcd).
//
// Canonicalization expands defaults: a nil Backends axis and an explicit
// list of every backend hash identically, because they run identically.
// Specs carrying code (a Make hook) are not content-addressable and are
// refused — a closure's behavior is invisible to any encoding of the
// struct, and hashing the rest would silently conflate different grids.

// CanonicalSpec is the declarative identity of a sweep grid with every
// default expanded. Field order is the serialization order, so the
// marshaled bytes are canonical.
type CanonicalSpec struct {
	Apps     []string `json:"apps"`
	Backends []string `json:"backends"`
	Tiles    []int    `json:"tiles"`
	Topos    []string `json:"topos"`
	// Base is the full system-configuration template (defaults expanded),
	// included because any knob on it — cache sizes, SDRAM timing, lock
	// kind — can change the measured cycles.
	Base soc.Config `json:"base"`
}

// Canonical returns the spec's canonical declarative form, or an error for
// specs that carry code: a Make hook makes the grid's behavior invisible
// to any encoding, so such specs have no stable hash.
func (s *Spec) Canonical() (*CanonicalSpec, error) {
	if s.Make != nil {
		return nil, fmt.Errorf("sweep: spec with a Make hook is not content-addressable")
	}
	cs := &CanonicalSpec{
		Apps:     append([]string(nil), s.Apps...),
		Backends: s.Backends,
		Tiles:    s.Tiles,
		Base:     s.base(),
	}
	if len(cs.Backends) == 0 {
		cs.Backends = rt.Backends
	}
	cs.Backends = append([]string(nil), cs.Backends...)
	if len(cs.Tiles) == 0 {
		cs.Tiles = []int{cs.Base.Tiles}
	}
	cs.Tiles = append([]int(nil), cs.Tiles...)
	topos := s.Topos
	if len(topos) == 0 {
		topos = []noc.Topology{noc.TopoRing}
	}
	for _, t := range topos {
		cs.Topos = append(cs.Topos, t.String())
	}
	return cs, nil
}

// Hash returns the canonical spec's content hash: the hex SHA-256 of its
// canonical JSON encoding.
func (cs *CanonicalSpec) Hash() string {
	data, err := json.Marshal(cs)
	if err != nil {
		// CanonicalSpec is plain data (strings, ints, the flat config
		// struct); marshaling cannot fail.
		panic(fmt.Sprintf("sweep: canonical spec marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Hash is Canonical().Hash() for declarative specs.
func (s *Spec) Hash() (string, error) {
	cs, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return cs.Hash(), nil
}
