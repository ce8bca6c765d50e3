package workloads

import (
	"math"

	"pmc/internal/sim"
)

// Open-loop service machinery shared by the server, kvstore, and stream
// workloads: a deterministic Poisson arrival schedule. Each workload
// records its completions into one stats.Service; the kernel runs one
// worker at a time, so the workers share it without synchronization. The
// Service is allocated apart from the workload, so a Result that keeps it
// does not keep the workload's objects, and through them the simulated
// system, alive.
//
// Arrivals are open-loop (the schedule does not react to completion
// times): requests keep arriving at the offered load even when the
// platform falls behind, which is what makes tail latency meaningful.
// The schedule is computed in Setup, outside simulated time, and is a
// pure function of (seed, count, load) — identical for every backend,
// worker count, and event-queue kind.

// expQ16 tabulates -ln((i+0.5)/4096) in Q16 fixed point: the inverse-CDF
// quantiles of the exponential distribution at 4096 levels. Sampling
// reduces to one table lookup and integer multiply, so schedule
// generation never does runtime floating-point math.
var expQ16 [4096]uint32

func init() {
	for i := range expQ16 {
		expQ16[i] = uint32(math.Round(-65536 * math.Log((float64(i)+0.5)/4096)))
	}
}

// poissonArrivals returns n cumulative arrival times with exponential
// interarrival gaps of mean 1000/load cycles (load = offered requests
// per kilocycle).
func poissonArrivals(seed uint32, n int, load float64) []sim.Time {
	if load <= 0 {
		load = 1
	}
	meanGapQ16 := uint64(math.Round(1000 * 65536 / load))
	r := newRand(seed)
	at := make([]sim.Time, n)
	var t uint64
	for i := range at {
		u := r.next() & 4095
		t += (meanGapQ16 * uint64(expQ16[u])) >> 32
		at[i] = sim.Time(t)
	}
	return at
}

// SetLoad overrides the offered load (requests per kilocycle) on a service
// workload instance and reports whether app is one. Closed-loop workloads
// have no offered-load knob and return false unchanged.
func SetLoad(app App, load float64) bool {
	switch a := app.(type) {
	case *Server:
		a.Load = load
	case *KVStore:
		a.Load = load
	case *Stream:
		a.Load = load
	default:
		return false
	}
	return true
}
