package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs op(lane, i) for i = 0 .. n-1 on `workers` goroutines;
// each lane starts its next op only after its previous one returned. It
// returns each op's latency and error, in index order, and the wall time.
func closedLoop(workers, n int, op func(lane, i int) error) ([]time.Duration, []error, time.Duration) {
	var (
		lat  = make([]time.Duration, n)
		errs = make([]error, n)
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				errs[i] = op(lane, i)
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return lat, errs, time.Since(start)
}

// traceOverhead is the traced phase's median op time over the untraced
// phase's. Medians keep the warm-up of either phase's first ops from
// counting as tracing cost.
func traceOverhead(untraced, traced []time.Duration) float64 {
	return ratio(float64(median(traced)), float64(median(untraced)))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, which repeats from run to run where a single set-up would not.
const setupReps = 7

// setUpRepeatedly sets a workload up setupReps times, keeping the last
// state; earlier states go to teardown. It returns every set-up's
// duration.
func setUpRepeatedly[T any](setup func() (T, error), teardown func(T)) (T, []time.Duration, error) {
	var (
		st   T
		durs []time.Duration
	)
	runtime.GC()
	for len(durs) < setupReps {
		if len(durs) > 0 {
			teardown(st)
		}
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, nil, err
		}
		durs = append(durs, time.Since(t0))
	}
	return st, durs, nil
}

// tracedPhase runs fn with the CPU profiler on and records the Go runtime
// and CPU-share metrics of that phase.
func tracedPhase(m metrics, fn func()) error {
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	m.set("go.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	m.set("go.gc_pause_ms", ms(time.Duration(after.PauseTotalNs-before.PauseTotalNs)), "ms")
	m.set("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m.set("cpu_share."+l, shares[l], "share")
	}
	return nil
}
