package spec

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"pmc/internal/rt"
)

// digestFaults are the fault columns of checkDigests: no fault, then each
// single fault pmclitmus -fault names.
var digestFaults = [...]string{"none", "release-without-flush", "exit-ro-without-invalidate", "flush-noop", "dropped-transfer"}

// checkDigests pins CheckBackend's full report — every divergence kind,
// detail, seed and their order — per backend and fault column, at Runs 2.
// Each value is the first 16 hex digits of the SHA-256 of
// Result.String(). The faulted rows cover the "read" kind
// (release-without-flush, dropped-transfer) and the "run" kind (flush-noop
// livelocks).
//
// dsm under flush-noop is left blank: its four livelocked recorded runs
// take over a minute. `pmclitmus -spec all -runs 2 -fault flush-noop`
// prints that report.
var checkDigests = map[string][len(digestFaults)]string{
	"nocc":      {"3d29087127739a8f", "3d29087127739a8f", "3d29087127739a8f", "3d29087127739a8f", "3d29087127739a8f"},
	"swcc":      {"a56eb6350f6724cc", "76d6b83ef59acacc", "a56eb6350f6724cc", "a56eb6350f6724cc", "a56eb6350f6724cc"},
	"swcc-lazy": {"325df751b5c76a3d", "325df751b5c76a3d", "325df751b5c76a3d", "0ac92b9daa79bd14", "b7e535e6bf56aa29"},
	"dsm":       {"4d35e8074b223937", "4d35e8074b223937", "4d35e8074b223937", "", "895dd734fe145ceb"},
	"spm":       {"8ba5718e253edf50", "237b1c424616d531", "8ba5718e253edf50", "8ba5718e253edf50", "8ba5718e253edf50"},
	"cdsm":      {"aa4d72f2a61f0d63", "aa4d72f2a61f0d63", "aa4d72f2a61f0d63", "aa4d72f2a61f0d63", "aa4d72f2a61f0d63"},
	"cspm":      {"0f947fede14fc2ee", "e87d46f5c0accc22", "0f947fede14fc2ee", "0f947fede14fc2ee", "0f947fede14fc2ee"},
	"adaptive":  {"56c4239eb53baf2b", "56c4239eb53baf2b", "56c4239eb53baf2b", "56c4239eb53baf2b", "56c4239eb53baf2b"},
}

func TestCheckBackendDigests(t *testing.T) {
	for _, name := range rt.Backends {
		for i, fault := range digestFaults {
			name, fault, want := name, fault, checkDigests[name][i]
			if want == "" {
				continue
			}
			t.Run(name+"/"+fault, func(t *testing.T) {
				t.Parallel()
				if testing.Short() && fault == "flush-noop" && name == "swcc-lazy" {
					t.Skip("livelocked recorded runs")
				}
				fs, err := rt.ParseFaultSet(fault)
				if err != nil {
					t.Fatal(err)
				}
				r, err := CheckBackend(mustSpec(t, name), CheckOptions{Runs: 2, Faults: fs})
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.String())))[:16]; got != want {
					t.Errorf("digest %s, want %s; report:\n%s", got, want, r)
				}
			})
		}
	}
}
