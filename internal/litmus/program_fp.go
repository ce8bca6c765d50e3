package litmus

import "fmt"

// Program-level canonical fingerprinting. Two programs that differ only in
// display names — the program Name, location names, register names — have
// identical behavior: outcomes are register assignments, and renaming a
// register renames the outcome consistently. Fingerprint canonicalizes the
// naming away so such programs collide:
//
//   - locations are numbered by first appearance, scanning threads in
//     order and each thread's instructions in order (locations that are
//     declared but never referenced contribute only their count);
//   - registers are numbered the same way;
//   - the fingerprint then folds thread structure and each instruction's
//     (kind, canonical location, value, canonical register) into the same
//     two-lane 128-bit hash the state memoizer uses.
//
// The fuzzer deduplicates generated programs by this fingerprint, and the
// FuzzFingerprint native fuzz target asserts the invariance: any
// relabeling of locations and registers preserves the fingerprint and the
// outcome set (modulo the register renaming).

// Fingerprint returns the canonical fingerprint of p as a 32-hex-digit
// string, invariant under renaming of the program, its locations and its
// registers.
func Fingerprint(p Program) string {
	locIdx := make(map[string]int)
	regIdx := make(map[string]int)
	canonLoc := func(name string) int {
		if name == "" {
			return -1 // location-less fence
		}
		if i, ok := locIdx[name]; ok {
			return i
		}
		locIdx[name] = len(locIdx)
		return locIdx[name]
	}
	canonReg := func(name string) int {
		if name == "" {
			return -1
		}
		if i, ok := regIdx[name]; ok {
			return i
		}
		regIdx[name] = len(regIdx)
		return regIdx[name]
	}

	h := newFpHash()
	h.mixInt(len(p.Threads))
	for _, th := range p.Threads {
		h.mixInt(len(th))
		for _, in := range th {
			h.mix(uint64(in.Kind))
			h.mixInt(canonLoc(in.Loc))
			// A location's width is part of program behavior (it sets
			// how scope and block instructions lower); widths follow the
			// location through any renaming, keeping the fingerprint
			// naming-invariant.
			h.mixInt(p.WidthOf(in.Loc))
			// A location's backend placement is part of program behavior
			// under mixed-mode execution. Backend names are a fixed
			// vocabulary — not display names — so they mix as literal
			// bytes; placements follow the location through renaming.
			h.mixString(p.Placement[in.Loc])
			h.mix(uint64(in.Val))
			h.mixInt(canonReg(in.Reg))
		}
	}
	// Declared-but-unused locations affect only the count (their names
	// and order are immaterial to behavior).
	unused := 0
	for _, name := range p.Locs {
		if _, ok := locIdx[name]; !ok {
			unused++
		}
	}
	h.mixInt(unused)
	return fmt.Sprintf("%016x%016x", h.hi, h.lo)
}

// ExploreFingerprint extends the program fingerprint with the engine
// configuration that reaches reported results: Memoize and Symmetry change
// what States counts (tree nodes, distinct canonical states, or distinct
// orbits) and MaxStates changes whether a budget abort is possible, so
// explorations differing in any of them are distinct cacheable
// computations. Workers is deliberately excluded — every worker count
// produces identical results (the engine's differential guarantee) — so a
// sequential and a parallel run share one cache entry.
func ExploreFingerprint(p Program, memoize, symmetry bool, maxStates int) string {
	h := newFpHash()
	h.mixString(Fingerprint(p))
	m := 0
	if memoize {
		m = 1
	}
	if symmetry {
		m += 2
	}
	h.mixInt(m)
	h.mixInt(maxStates)
	return fmt.Sprintf("%016x%016x", h.hi, h.lo)
}

// InstrCount returns the total number of instructions across all threads —
// the size metric the fuzzer's shrinker minimizes.
func InstrCount(p Program) int {
	n := 0
	for _, th := range p.Threads {
		n += len(th)
	}
	return n
}
