package litmus

import (
	"math/bits"

	"pmc/internal/core"
)

// Canonical state fingerprinting. Two exploration states are isomorphic —
// they have identical futures, outcome for outcome and count for count —
// when they agree on per-thread progress (pcs), lock holders, registers,
// per-thread last-read views and the execution's dependency graph, after
// relabeling operation IDs to a form independent of issue interleaving.
// All model semantics consulted during exploration — Table I pattern
// matches, visibility, reachability, last-write and readable sets — are
// functions of the (ops, edges) graph structure, never of raw issue-order
// positions, so such a relabeled graph captures the entire future.
//
// Fixed labels. Every op is labeled by the static instruction that issued
// it: the init op of location l by l, and thread t's instruction pc by
// NumLocs + Σ_{u<t} len(thread u) + pc (Explorer.base). An instruction
// issues at most one op (IFlush issues none), so labels are unique within
// a state, and an op's label never changes once it is issued. Kind, proc
// and location are functions of the label, so an op is fully described
// by the element (label, value) and an edge by (label(from), label(to),
// ord).
//
// Multiset hash. The graph is hashed as the multiset of those elements:
// each lane of a 128-bit accumulator (fpAcc) is the wrapping sum of a
// strong per-element mix, with independent seeds per lane. Addition is
// order-independent and invertible, so apply adds the new op and its
// in-edges and undo subtracts them — O(new op + its in-edges) per step,
// with no relabeling pass and no sort. fingerprint finalises the
// accumulator with pcs, lock holders, last-read views (mixed by label)
// and registers, O(threads × locations).
//
// Same classes as the from-scratch canonical form. The test oracle
// (fingerprint_oracle_test.go) relabels every op to its position in
// (process, program position) order, serializes the ops in that order
// and hashes the sorted, relabeled edge list. Given the pcs, which both
// forms hash, the two labelings are in bijection: thread t's ops are
// exactly those issued by its non-flush instructions below pcs[t], in
// program order, so its k-th op and the instruction label it carries
// determine each other. Ops and edges are determined by their elements,
// and the serialization lists each op once and the edges with
// multiplicity — the same information as the multiset. So two states
// with equal pcs have equal serializations exactly when they have equal
// element multisets, and the two forms induce the same equivalence
// classes.
//
// Collision bound. Model the per-lane element mix as a random function
// into Z/2⁶⁴. Two distinct multisets differ by Σ c_e·H(e) with some
// c_e ≠ 0, and the lane collides with probability 2^(v-64), where 2^v is
// the largest power of two dividing every nonzero c_e. Here every
// element occurs at most once — labels are unique, and the Table I rules
// for one new kind have distinct earlier kinds, so one pair of ops gets
// at most one edge — hence c_e = ±1 and v = 0. The lanes are seeded
// independently, so two distinct graphs collide with probability 2⁻¹²⁸,
// and over n states the birthday bound is about n²/2¹²⁹: negligible even
// at millions of states, so the memo table keys on the 128-bit value
// alone.
//
// Symmetry. Under a program automorphism (symmetry.go) the op of thread
// t at pc relabels to thread p.threads[t]'s instruction pc, and the init
// op of location l to p.locs[l] (autPerm.label). The state keeps one
// accumulator per frame — the identity plus each automorphism — updated
// with permuted labels, and fingerprintIn finalises any of them, so the
// orbit-canonical key (canonicalFP) needs no from-scratch pass either.

// fingerprint is a 128-bit canonical state hash, used as a memo-table key.
type fingerprint struct {
	hi, lo uint64
}

// fpHash accumulates 64-bit tokens into two independent lanes: an FNV-1a
// style lane and a SplitMix64-finalizer style lane over a rotated copy.
type fpHash struct {
	hi, lo uint64
}

func newFpHash() fpHash {
	return fpHash{hi: 14695981039346656037, lo: 0x9e3779b97f4a7c15}
}

func (h *fpHash) mix(x uint64) {
	h.hi = (h.hi ^ x) * 1099511628211
	l := h.lo ^ bits.RotateLeft64(x, 31)
	l = (l ^ (l >> 30)) * 0xbf58476d1ce4e5b9
	h.lo = l ^ (l >> 27)
}

func (h *fpHash) mixInt(x int) { h.mix(uint64(int64(x))) }

func (h *fpHash) mixString(s string) {
	h.mixInt(len(s))
	for i := 0; i < len(s); i++ {
		h.mix(uint64(s[i]))
	}
}

// fpAcc is one frame's multiset accumulator: per lane, the wrapping sum
// of the element mixes of every op and edge in the execution.
type fpAcc struct {
	hi, lo uint64
}

func (a *fpAcc) add(d fpAcc) { a.hi += d.hi; a.lo += d.lo }
func (a *fpAcc) sub(d fpAcc) { a.hi -= d.hi; a.lo -= d.lo }

// Per-lane seeds, distinct for op and edge elements.
const (
	seedOpHi   = 0x243f6a8885a308d3
	seedOpLo   = 0x13198a2e03707344
	seedEdgeHi = 0xa4093822299f31d0
	seedEdgeLo = 0x082efa98ec4e6c89
)

// mix64 is the SplitMix64 finalizer, a bijection with full avalanche.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opElem is the element of the op labeled label with value val.
func opElem(label int, val core.Value) fpAcc {
	return fpAcc{
		hi: mix64(mix64(seedOpHi^uint64(label)) ^ uint64(val)),
		lo: mix64(mix64(seedOpLo^uint64(label)) ^ uint64(val)),
	}
}

// edgeElem is the element of an ord edge between the ops labeled from and
// to. Ord takes two bits.
func edgeElem(from, to int, ord core.Ord) fpAcc {
	k := uint64(to)<<2 | uint64(ord)
	return fpAcc{
		hi: mix64(mix64(seedEdgeHi^uint64(from)) ^ k),
		lo: mix64(mix64(seedEdgeLo^uint64(from)) ^ k),
	}
}

// account adds the element of op id and of each of its in-edges to every
// frame's accumulator, or subtracts them when remove is set. id must be
// the newest op: apply accounts for it after issuing it, undo before
// retracting it.
func (x *Explorer) account(s *state, id int, remove bool) {
	val := s.exec.Op(id).Val
	in := s.exec.In(id)
	for f, relabel := range x.frames {
		to := relabel[s.labels[id]]
		d := opElem(to, val)
		for _, ed := range in {
			d.add(edgeElem(relabel[s.labels[ed.From]], to, ed.Ord))
		}
		if remove {
			s.acc[f].sub(d)
		} else {
			s.acc[f].add(d)
		}
	}
}

// fingerprint computes the canonical hash of s.
func (x *Explorer) fingerprint(s *state) fingerprint {
	return x.fingerprintIn(s, 0)
}

// fingerprintIn finalises frame f's accumulator (0 = identity, f ≥ 1 =
// automorphism x.auts[f-1]) with the rest of the state, each part walked
// in that frame's index order. The result is the fingerprint of the state
// the permuted-and-renamed program would have reached; since the
// permutation maps the program onto itself, that is a state of the same
// program — the basis of symmetry reduction (symmetry.go).
func (x *Explorer) fingerprintIn(s *state, f int) fingerprint {
	relabel := x.frames[f]
	var p *autPerm
	if f > 0 {
		p = x.auts[f-1]
	}
	numLocs := len(x.prog.Locs)
	h := fpHash{hi: s.acc[f].hi, lo: s.acc[f].lo}
	for t := range s.pcs {
		if p != nil {
			h.mixInt(s.pcs[p.invT[t]])
		} else {
			h.mixInt(s.pcs[t])
		}
	}
	for l := range s.lockHolder {
		holder := s.lockHolder[l]
		if p != nil {
			holder = s.lockHolder[p.invL[l]]
			if holder >= 0 {
				holder = p.threads[holder]
			}
		}
		h.mixInt(holder)
	}
	for i := range s.lastRead {
		id := s.lastRead[i]
		if p != nil {
			t, l := i/numLocs, i%numLocs
			id = s.lastRead[p.invT[t]*numLocs+p.invL[l]]
		}
		if id < 0 {
			h.mixInt(-1)
		} else {
			h.mixInt(relabel[s.labels[id]])
		}
	}
	// Registers: the file is indexed by regOrder slot, so position
	// identifies the register and only presence and value need mixing.
	for r := range s.regs {
		rv := s.regs[r]
		if p != nil {
			rv = s.regs[p.regFrom[r]]
		}
		if rv.Set {
			h.mix(1)
			h.mix(uint64(rv.Val))
		} else {
			h.mix(0)
		}
	}
	return fingerprint{hi: h.hi, lo: h.lo}
}
