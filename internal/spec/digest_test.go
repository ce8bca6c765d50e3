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
// detail, seed and their order — per backend and fault column, at Runs 2
// on a 32-tile platform. Each value is the first 16 hex digits of the
// SHA-256 of Result.String(). The faulted rows cover the "read" kind
// (release-without-flush, dropped-transfer) and the "run" kind (flush-noop
// livelocks).
//
// dsm under flush-noop is left blank: its four livelocked recorded runs
// take over a minute. `pmclitmus -spec all -runs 2 -fault flush-noop`
// prints that report.
var checkDigests = map[string][len(digestFaults)]string{
	"nocc":      {"3e78cb2169b9f8c4", "3e78cb2169b9f8c4", "3e78cb2169b9f8c4", "3e78cb2169b9f8c4", "3e78cb2169b9f8c4"},
	"swcc":      {"547002509f990267", "1781afee0c976049", "547002509f990267", "547002509f990267", "547002509f990267"},
	"swcc-lazy": {"90628fc2a593c481", "90628fc2a593c481", "90628fc2a593c481", "d50a1f938cfd5d05", "fda104314165c644"},
	"dsm":       {"3a4e9c73cf0af99d", "3a4e9c73cf0af99d", "3a4e9c73cf0af99d", "", "87714d40f97c589f"},
	"spm":       {"9b72c4521ca5cec7", "616b40888787cdee", "9b72c4521ca5cec7", "9b72c4521ca5cec7", "9b72c4521ca5cec7"},
	"cdsm":      {"6f9634783ef40657", "6f9634783ef40657", "6f9634783ef40657", "6f9634783ef40657", "6f9634783ef40657"},
	"cspm":      {"86f5d2a5bd7aaa20", "70788b4359d774a5", "86f5d2a5bd7aaa20", "86f5d2a5bd7aaa20", "86f5d2a5bd7aaa20"},
	"adaptive":  {"6ca7f8f15bc55d3f", "6ca7f8f15bc55d3f", "6ca7f8f15bc55d3f", "6ca7f8f15bc55d3f", "6ca7f8f15bc55d3f"},
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
				opt := CheckOptions{Runs: 2}
				if fs.Enabled() {
					opt.Backend = func() (rt.Backend, error) {
						b, err := rt.ByName(name)
						if err != nil {
							return nil, err
						}
						return rt.InjectFaults(b, fs), nil
					}
				}
				r, err := CheckBackend(mustSpec(t, name), Platform{Tiles: 32}, opt)
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
