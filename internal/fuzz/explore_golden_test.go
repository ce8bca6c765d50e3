package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"pmc/internal/conform"
	"pmc/internal/litmus"
)

// goldenExploreDigest is the SHA-256 of exploreDigestInput: 120 generated
// mixed-mode programs, each explored sequentially, on two workers, and
// with symmetry reduction. It pins the explorer's observable results —
// States, Stuck and every outcome with its path count — so an engine
// change that is meant to be behaviour-preserving can prove it is.
const goldenExploreDigest = "9f473ad11a29ab9d988b33b670ac29b672e536fc3a3a6ff9c1fe2a2f43eea3bc"

// goldenBudget bounds each exploration; programs that exceed it record
// the budget error in the digest instead of a result.
const goldenBudget = 20_000

// exploreDigestInput renders one line per (program, engine mode).
func exploreDigestInput(t *testing.T) []byte {
	t.Helper()
	var b []byte
	modes := []struct {
		workers  int
		symmetry bool
	}{{1, false}, {2, false}, {2, true}}
	for _, maxThreads := range []int{2, 3} {
		for i := int64(0); i < 60; i++ {
			seed := int64(maxThreads)*1000 + i
			p := conform.EffectiveProgram(Generate(seed, GenConfig{Mode: ModeMixed, MaxThreads: maxThreads}))
			for _, m := range modes {
				x := litmus.NewExplorer(p)
				x.Workers, x.Symmetry, x.MaxStates = m.workers, m.symmetry, goldenBudget
				res, err := x.Run()
				line := fmt.Sprintf("seed=%d threads=%d workers=%d sym=%v: ", seed, len(p.Threads), m.workers, m.symmetry)
				switch {
				case errors.Is(err, litmus.ErrBudget):
					line += "budget"
				case err != nil:
					t.Fatalf("seed %d: %v", seed, err)
				default:
					line += fmt.Sprintf("states=%d stuck=%d", res.States, res.Stuck)
					for _, o := range res.OutcomeList() {
						line += fmt.Sprintf(" [%s]x%d", o, res.Outcomes[o])
					}
				}
				b = append(b, line...)
				b = append(b, '\n')
			}
		}
	}
	return b
}

// TestExploreGoldenDigest: exploring the golden program set reproduces
// the pinned digest in every mode.
func TestExploreGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("360 explorations")
	}
	in := exploreDigestInput(t)
	sum := sha256.Sum256(in)
	if got := hex.EncodeToString(sum[:]); got != goldenExploreDigest {
		t.Fatalf("explore digest = %s, want %s\n%s", got, goldenExploreDigest, in)
	}
}
