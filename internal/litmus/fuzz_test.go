package litmus

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pmc/internal/core"
)

// Native fuzz target for the canonical program fingerprint: naming is
// immaterial to behavior, so any relabeling of locations and registers
// must preserve (a) the fingerprint and (b) the outcome set modulo the
// register renaming, execution count for execution count. It also checks
// the incremental state fingerprint against its from-scratch oracle over
// every reachable state of the fuzzed program, in every frame
// (checkFingerprintOracle). Run with
//
//	go test -fuzz FuzzFingerprint ./internal/litmus

// fuzzProgram deterministically builds a (possibly invalid) litmus
// program from raw fuzz bytes: up to 3 threads and 12 instructions over
// small location/register/value alphabets, with L1 optionally wide (block
// reads/writes then exercise the ranged lowering). Invalid programs
// (release without hold) are fine — the invariance must hold for them
// too, as a matching exploration error.
func fuzzProgram(data []byte) Program {
	p := Program{
		Name: "fuzzed",
		Locs: []string{"L0", "L1", "L2"},
	}
	nThreads := 1
	if len(data) > 0 {
		nThreads = 1 + int(data[0]%3)
		if w := int(data[0]/3) % 4; w > 1 {
			p.Widths = map[string]int{"L1": w}
		}
		// Optionally place L0 on a backend (placement is part of the
		// fingerprint; the keys must survive relabeling).
		if b := int(data[0]/48) % 3; b > 0 {
			p.Placement = map[string]string{"L0": []string{"dsm", "spm"}[b-1]}
		}
		data = data[1:]
	}
	p.Threads = make([]Thread, nThreads)
	total := 0
	for len(data) >= 4 && total < 12 {
		ti := int(data[0]) % nThreads
		loc := p.Locs[int(data[1])%len(p.Locs)]
		val := core.Value(data[2] % 4)
		reg := fmt.Sprintf("r%d", data[2]%4)
		var in Instr
		switch data[3] % 9 {
		case 0:
			in = Read(loc, reg)
		case 1:
			in = Write(loc, val)
		case 2:
			in = Acquire(loc)
		case 3:
			in = Release(loc)
		case 4:
			in = Fence()
		case 5:
			in = Flush(loc)
		case 6:
			in = AwaitEq(loc, val, "")
		case 7:
			in = ReadBlock(loc, reg)
		case 8:
			in = WriteBlock(loc, val)
		}
		p.Threads[ti] = append(p.Threads[ti], in)
		total++
		data = data[4:]
	}
	return p
}

// relabel renames every location and register through the given maps,
// leaving structure (including location widths) untouched.
func relabel(p Program, locMap, regMap map[string]string) Program {
	out := p
	out.Locs = make([]string, len(p.Locs))
	for i, l := range p.Locs {
		out.Locs[i] = locMap[l]
	}
	if p.Widths != nil {
		out.Widths = make(map[string]int, len(p.Widths))
		for l, w := range p.Widths {
			out.Widths[locMap[l]] = w
		}
	}
	if p.Placement != nil {
		out.Placement = make(map[string]string, len(p.Placement))
		for l, b := range p.Placement {
			out.Placement[locMap[l]] = b
		}
	}
	out.Threads = make([]Thread, len(p.Threads))
	for ti, th := range p.Threads {
		out.Threads[ti] = make(Thread, len(th))
		for i, in := range th {
			if in.Loc != "" {
				in.Loc = locMap[in.Loc]
			}
			if in.Reg != "" {
				in.Reg = regMap[in.Reg]
			}
			out.Threads[ti][i] = in
		}
	}
	return out
}

// mapOutcome rewrites one canonical outcome string through a register
// mapping and re-canonicalizes it. Block reads observe derived registers
// ("r2@1"); the base name is mapped and the word suffix kept.
func mapOutcome(o string, regMap map[string]string) string {
	if o == "(no observations)" {
		return o
	}
	parts := strings.Fields(o)
	for i, part := range parts {
		eq := strings.IndexByte(part, '=')
		name, suffix := part[:eq], ""
		if at := strings.IndexByte(name, '@'); at >= 0 {
			name, suffix = name[:at], name[at:]
		}
		parts[i] = regMap[name] + suffix + part[eq:]
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func exploreSmall(p Program) (*Result, error) {
	x := NewExplorer(p)
	x.Workers = 1
	x.MaxStates = 30_000
	return x.Run()
}

func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1}, uint8(1))
	f.Add([]byte{3, 0, 0, 1, 2, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 6}, uint8(3))
	f.Add([]byte{1, 0, 1, 2, 0, 0, 1, 1, 0, 0, 2, 3}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, permByte uint8) {
		p := fuzzProgram(data)
		// A relabeling derived from permByte: rotate the location and
		// register alphabets and give them fresh display names.
		locMap := map[string]string{}
		for i, l := range p.Locs {
			locMap[l] = fmt.Sprintf("loc_%d", (i+int(permByte))%len(p.Locs))
		}
		regMap := map[string]string{}
		revReg := map[string]string{}
		for i := 0; i < 4; i++ {
			from := fmt.Sprintf("r%d", i)
			to := fmt.Sprintf("q%d", (i+int(permByte)*3)%4)
			regMap[from] = to
			revReg[to] = from
		}
		q := relabel(p, locMap, regMap)

		if _, err := checkFingerprintOracle(p, newFpClasses(), 30_000); err != nil {
			t.Fatal(err)
		}

		if a, b := Fingerprint(p), Fingerprint(q); a != b {
			t.Fatalf("relabeling changed the fingerprint: %s vs %s", a, b)
		}

		resP, errP := exploreSmall(p)
		resQ, errQ := exploreSmall(q)
		if (errP == nil) != (errQ == nil) {
			t.Fatalf("relabeling changed explorability: %v vs %v", errP, errQ)
		}
		if errP != nil {
			return
		}
		if resP.Stuck != resQ.Stuck {
			t.Fatalf("relabeling changed stuck count: %d vs %d", resP.Stuck, resQ.Stuck)
		}
		mapped := make(map[string]int, len(resQ.Outcomes))
		for o, n := range resQ.Outcomes {
			mapped[mapOutcome(o, revReg)] = n
		}
		if len(mapped) != len(resP.Outcomes) {
			t.Fatalf("outcome sets differ: %v vs %v", resP.Outcomes, mapped)
		}
		for o, n := range resP.Outcomes {
			if mapped[o] != n {
				t.Fatalf("outcome %q: %d executions vs %d after relabeling", o, n, mapped[o])
			}
		}
	})
}

// TestFingerprintBasics pins the deterministic properties the fuzz target
// relies on: stability, naming invariance, and sensitivity to structure.
func TestFingerprintBasics(t *testing.T) {
	p := Fig5Annotated()
	if Fingerprint(p) != Fingerprint(Fig5Annotated()) {
		t.Fatal("fingerprint not stable")
	}
	renamed := relabel(p, map[string]string{"X": "data", "f": "flag"},
		map[string]string{"poll": "a", "rX": "b"})
	renamed.Name = "other-name"
	if Fingerprint(p) != Fingerprint(renamed) {
		t.Fatal("renaming locations/registers changed the fingerprint")
	}
	q := Fig5Annotated()
	q.Threads[0][1].Val = 43
	if Fingerprint(p) == Fingerprint(q) {
		t.Fatal("value change did not change the fingerprint")
	}
	r := Fig5NoAcquire()
	if Fingerprint(p) == Fingerprint(r) {
		t.Fatal("structural change did not change the fingerprint")
	}
	// All catalog programs are pairwise distinct.
	seen := map[string]string{}
	for _, c := range Catalog() {
		fp := Fingerprint(c)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("catalog collision: %s and %s", prev, c.Name)
		}
		seen[fp] = c.Name
	}
}
