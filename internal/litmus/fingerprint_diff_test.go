package litmus_test

import (
	"testing"

	"pmc/internal/conform"
	"pmc/internal/fuzz"
	"pmc/internal/litmus"
)

// oracleBudget bounds the distinct states walked per program.
const oracleBudget = 20_000

// TestIncrementalFingerprintMatchesOracle: over every reachable state of
// the catalog and of the 120 generated mixed-mode programs the golden
// explore digest pins, in the identity frame and every automorphism
// frame, two states share an incremental fingerprint exactly when they
// share the from-scratch oracle's.
func TestIncrementalFingerprintMatchesOracle(t *testing.T) {
	progs := litmus.Catalog()
	if !testing.Short() {
		for _, maxThreads := range []int{2, 3} {
			for i := int64(0); i < 60; i++ {
				seed := int64(maxThreads)*1000 + i
				progs = append(progs, conform.EffectiveProgram(
					fuzz.Generate(seed, fuzz.GenConfig{Mode: fuzz.ModeMixed, MaxThreads: maxThreads})))
			}
		}
	}
	total := 0
	for _, p := range progs {
		// One class table per program: states of different programs
		// are never compared.
		n, err := litmus.CheckFingerprintOracle(p, litmus.NewFingerprintClasses(), oracleBudget)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	t.Logf("%d programs, %d distinct states", len(progs), total)
}
