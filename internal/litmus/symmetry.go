package litmus

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"pmc/internal/core"
)

// Symmetry reduction. Many litmus programs contain interchangeable
// threads — iriw's two readers, stress programs' identical workers. A
// program automorphism is a pair of permutations (threads, locations)
// that maps the lowered program onto itself: thread t's instruction
// sequence, with locations and registers renamed, is exactly thread
// π(t)'s sequence, kind for kind and value for value. Two exploration
// states related by an automorphism have futures that are identical up
// to the induced register renaming, so the memoized engine can explore
// one orbit representative and translate its outcome map for every
// other member — collapsing the state count by up to the group order
// (t! for t fully symmetric threads) while leaving Outcomes, Stuck and
// per-outcome path counts bit-identical.
//
// The canonical key of a state is the minimum, over the identity plus
// every discovered automorphism, of the permuted fingerprint
// (fingerprintIn, one accumulator per automorphism). Correctness does
// not require the discovered set to be closed under composition: each
// permutation is independently a program automorphism, and a memo hit
// translates through the achieving permutations of both states, so
// partial groups merely collapse less.

// autPerm is one program automorphism: forward and inverse permutations
// of threads and (lowered) locations, plus the induced bijections on
// register slots (regOrder positions) and on fixed op labels.
type autPerm struct {
	threads []int // image of thread t
	invT    []int
	locs    []int // image of location index l
	invL    []int
	regTo   []int // image of register slot r
	regFrom []int
	// label is the image of each op label (fingerprint.go): init op l
	// maps to locs[l], thread t's instruction pc to thread threads[t]'s
	// instruction pc.
	label []int
}

// autMaxThreads caps the thread-permutation search; beyond it the
// factorial candidate space is not worth scanning for litmus-sized
// programs, and symmetry silently degrades to identity-only (no
// reduction, same results).
const autMaxThreads = 7

// automorphisms discovers the program's non-identity automorphisms.
// Called from prepare once the program is lowered and locIdx, regIdx and
// base are built.
func (x *Explorer) automorphisms() []*autPerm {
	T := len(x.prog.Threads)
	if T < 2 || T > autMaxThreads {
		return nil
	}
	// Threads can only map to threads with the same shape signature
	// (kinds and values, locations and registers abstracted to
	// first-occurrence indices), which prunes the search to permutations
	// within signature classes.
	sigs := make([]string, T)
	for t := range x.prog.Threads {
		sigs[t] = threadSignature(x.prog.Threads[t])
	}
	var (
		auts []*autPerm
		perm = make([]int, T)
		used = make([]bool, T)
	)
	var assign func(t int)
	assign = func(t int) {
		if t == T {
			if a := x.deriveAut(perm); a != nil {
				auts = append(auts, a)
			}
			return
		}
		for img := 0; img < T; img++ {
			if used[img] || sigs[img] != sigs[t] {
				continue
			}
			perm[t] = img
			used[img] = true
			assign(t + 1)
			used[img] = false
		}
	}
	assign(0)
	return auts
}

// threadSignature renders a thread with locations and registers replaced
// by first-occurrence indices, so that renaming-equivalent threads — and
// only those — share a signature.
func threadSignature(th Thread) string {
	var b strings.Builder
	locs := make(map[string]int)
	regs := make(map[string]int)
	abstract := func(m map[string]int, name string) int {
		if name == "" {
			return -1
		}
		if i, ok := m[name]; ok {
			return i
		}
		m[name] = len(m)
		return len(m) - 1
	}
	for _, in := range th {
		b.WriteString(strconv.Itoa(int(in.Kind)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(abstract(locs, in.Loc)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(abstract(regs, in.Reg)))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(uint64(in.Val), 10))
		b.WriteByte(';')
	}
	return b.String()
}

// deriveAut unifies the location and register renamings induced by the
// thread permutation, returning the automorphism or nil if perm does not
// preserve the program. Unconstrained locations (never touched by an
// instruction) must stay fixed; every register is constrained by
// construction (regOrder is built from the instructions).
func (x *Explorer) deriveAut(perm []int) *autPerm {
	T := len(x.prog.Threads)
	identity := true
	for t, img := range perm {
		if t != img {
			identity = false
		}
	}
	if identity {
		return nil
	}
	L := len(x.prog.Locs)
	R := len(x.regOrder)
	locMap := fillNeg(make([]int, L))
	locUsed := make([]bool, L)
	regMap := fillNeg(make([]int, R))
	regUsed := make([]bool, R)
	unify := func(m []int, usedSet []bool, from, to int) bool {
		if m[from] == to {
			return true
		}
		if m[from] != -1 || usedSet[to] {
			return false
		}
		m[from] = to
		usedSet[to] = true
		return true
	}
	for t := 0; t < T; t++ {
		a, b := x.prog.Threads[t], x.prog.Threads[perm[t]]
		if len(a) != len(b) {
			return nil
		}
		for i := range a {
			ia, ib := a[i], b[i]
			if ia.Kind != ib.Kind || ia.Val != ib.Val {
				return nil
			}
			if (ia.Loc == "") != (ib.Loc == "") || (ia.Reg == "") != (ib.Reg == "") {
				return nil
			}
			if ia.Loc != "" {
				la, lb := int(x.locIdx[ia.Loc]), int(x.locIdx[ib.Loc])
				// Placement-preserving only: the model ignores placement,
				// but keeping the renamed program literally identical is
				// free and avoids surprises in mixed-backend runs.
				if x.prog.PlacedOn(ia.Loc) != x.prog.PlacedOn(ib.Loc) {
					return nil
				}
				if !unify(locMap, locUsed, la, lb) {
					return nil
				}
			}
			if ia.Reg != "" {
				if !unify(regMap, regUsed, x.regIdx[ia.Reg], x.regIdx[ib.Reg]) {
					return nil
				}
			}
		}
	}
	for l := 0; l < L; l++ {
		if locMap[l] == -1 {
			if locUsed[l] {
				return nil
			}
			locMap[l] = l
			locUsed[l] = true
		}
	}
	label := append([]int(nil), locMap...)
	for t, th := range x.prog.Threads {
		for pc := range th {
			label = append(label, x.base[perm[t]]+pc)
		}
	}
	return &autPerm{
		threads: append([]int(nil), perm...),
		invT:    invert(perm),
		locs:    locMap,
		invL:    invert(locMap),
		regTo:   regMap,
		regFrom: invert(regMap),
		label:   label,
	}
}

func fillNeg(s []int) []int {
	for i := range s {
		s[i] = -1
	}
	return s
}

func invert(perm []int) []int {
	inv := make([]int, len(perm))
	for i, img := range perm {
		inv[img] = i
	}
	return inv
}

// less orders fingerprints for the min-over-group canonical key.
func (f fingerprint) less(o fingerprint) bool {
	if f.hi != o.hi {
		return f.hi < o.hi
	}
	return f.lo < o.lo
}

// translateOutcome rewrites a canonical outcome string through a
// register-slot map: the value observed at slot r reappears at slot
// slotMap[r]. Counts are per outcome string; the map is a bijection, so
// translation is too.
func (x *Explorer) translateOutcome(out string, slotMap []int) string {
	if out == noObservations {
		return out
	}
	regs := make([]regVal, len(x.regOrder))
	for _, tok := range strings.Split(out, " ") {
		name, val, ok := strings.Cut(tok, "=")
		if !ok {
			// Outcome strings are produced only by canonical(); an
			// unparseable token would be an engine bug.
			panic(fmt.Sprintf("litmus: malformed outcome token %q", tok))
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("litmus: malformed outcome value %q", tok))
		}
		regs[slotMap[x.regIdx[name]]] = regVal{Val: core.Value(v), Set: true}
	}
	return x.canonical(regs)
}

// translateSub translates a subtree result through a register-slot map:
// each outcome id maps to its name, through translateOutcome, and back to
// an id. The input is shared memo state and is never mutated.
func (g *engine) translateSub(res subResult, slotMap []int) subResult {
	if len(res) == 0 || res[len(res)-1].id == stuckID {
		return res // no outcomes, at most the stuck count
	}
	out := make(subResult, len(res))
	for i, c := range res {
		if c.id != stuckID {
			c.id, _ = g.intern([]byte(g.x.translateOutcome(g.name(c.id), slotMap)))
		}
		out[i] = c
	}
	// The translation is a bijection on outcomes, so no two entries
	// merge; only their id order changes.
	slices.SortFunc(out, func(a, b outcomeCount) int { return cmp.Compare(a.id, b.id) })
	return out
}
