package litmus

import (
	"fmt"
	"slices"

	"pmc/internal/core"
)

// fingerprintPerm is the from-scratch canonical state hash the
// incremental fingerprint replaced, kept as its test oracle. It relabels
// every op to its position in (process, program order) — init ops first,
// in AddLoc order — serializes the ops in that order with kind, proc,
// location, value and init flag, then the relabeled edge list sorted,
// then the pcs, lock holders, last-read views and registers. Under
// automorphism p (nil = identity) the same serialization runs in the
// permuted frame: thread t's ops take thread p.threads[t]'s slot range and
// the init op of location l takes slot p.locs[l].
func (x *Explorer) fingerprintPerm(s *state, p *autPerm) fingerprint {
	ops := s.exec.Ops()
	numLocs := len(x.prog.Locs)
	canon := make([]int, len(ops))
	order := make([]int, len(ops))
	counts := make([]int, len(x.prog.Threads))
	numInit := 0
	for _, op := range ops {
		if op.Proc == core.InitProc {
			numInit++
		} else if p != nil {
			counts[p.threads[op.Proc]]++
		} else {
			counts[op.Proc]++
		}
	}
	off := numInit
	for t := range counts {
		c := counts[t]
		counts[t] = off
		off += c
	}
	initIdx := 0
	for _, op := range ops {
		var slot int
		if op.Proc == core.InitProc {
			if p != nil {
				slot = p.locs[op.Loc]
			} else {
				slot = initIdx
				initIdx++
			}
		} else if p != nil {
			t := p.threads[op.Proc]
			slot = counts[t]
			counts[t]++
		} else {
			slot = counts[op.Proc]
			counts[op.Proc]++
		}
		canon[op.ID] = slot
		order[slot] = op.ID
	}

	h := newFpHash()
	h.mixInt(len(ops))
	for _, id := range order {
		op := ops[id]
		h.mix(uint64(op.Kind))
		proc, loc := int(op.Proc), int(op.Loc)
		if p != nil {
			if op.Proc != core.InitProc {
				proc = p.threads[proc]
			}
			if loc >= 0 {
				loc = p.locs[loc]
			}
		}
		h.mixInt(proc)
		h.mixInt(loc)
		h.mix(uint64(op.Val))
		if op.IsInit {
			h.mix(1)
		} else {
			h.mix(0)
		}
	}
	var edges []uint64
	for id := range ops {
		for _, ed := range s.exec.Out(id) {
			edges = append(edges, uint64(canon[ed.From])<<34|uint64(canon[ed.To])<<4|uint64(ed.Ord))
		}
	}
	slices.Sort(edges)
	h.mixInt(len(edges))
	for _, e := range edges {
		h.mix(e)
	}
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
			h.mixInt(canon[id])
		}
	}
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

// fpClasses records, across every (state, frame) pair a check visits,
// which incremental fingerprint each oracle fingerprint maps to and back.
// The two fingerprints induce the same equivalence classes exactly when
// both maps stay functions.
type fpClasses struct {
	incToOracle, oracleToInc map[fingerprint]fingerprint
}

func newFpClasses() *fpClasses {
	return &fpClasses{
		incToOracle: make(map[fingerprint]fingerprint),
		oracleToInc: make(map[fingerprint]fingerprint),
	}
}

// observe records one (incremental, oracle) pair, failing when it splits
// or merges a class seen before.
func (c *fpClasses) observe(inc, oracle fingerprint) error {
	if prev, ok := c.incToOracle[inc]; ok && prev != oracle {
		return fmt.Errorf("incremental fingerprint %x merges oracle classes %x and %x", inc, prev, oracle)
	}
	if prev, ok := c.oracleToInc[oracle]; ok && prev != inc {
		return fmt.Errorf("oracle class %x splits into incremental fingerprints %x and %x", oracle, prev, inc)
	}
	c.incToOracle[inc], c.oracleToInc[oracle] = oracle, inc
	return nil
}

// checkFingerprintOracle walks the states reachable in p, up to maxStates
// distinct ones, with the explorer's own apply and undo, and checks on
// every arrival at a state, in the identity frame and in every
// automorphism frame, that the incremental fingerprint and the
// from-scratch oracle agree on equivalence (c spans all of them). A state
// is expanded once, on its first arrival. It returns the number of
// distinct states walked; a program the explorer rejects has none.
func checkFingerprintOracle(p Program, c *fpClasses, maxStates int) (int, error) {
	x := NewExplorer(p)
	x.Symmetry = true // find the automorphisms, so every frame is checked
	s, err := x.prepare()
	if err != nil {
		return 0, nil
	}
	seen := make(map[fingerprint]bool)
	var walk func() error
	walk = func() error {
		for f := range x.frames {
			var perm *autPerm
			if f > 0 {
				perm = x.auts[f-1]
			}
			if err := c.observe(x.fingerprintIn(s, f), x.fingerprintPerm(s, perm)); err != nil {
				return fmt.Errorf("%s, pcs %v, frame %d: %w", p.Name, s.pcs, f, err)
			}
		}
		key := x.fingerprintPerm(s, nil)
		if seen[key] || len(seen) >= maxStates {
			return nil
		}
		seen[key] = true
		var ms []move
		for t := range x.prog.Threads {
			if ms, err = x.moves(ms, s, t); err != nil {
				return err
			}
		}
		for _, m := range ms {
			tr := x.apply(s, m)
			err := walk()
			x.undo(s, m, tr)
			if err != nil {
				return err
			}
		}
		return nil
	}
	err = walk()
	return len(seen), err
}
