package workloads

import (
	"testing"

	"pmc/internal/sim"
)

// TestPoissonArrivals: the schedule is a pure function of its inputs,
// nondecreasing, and its mean interarrival gap lands near 1000/load.
func TestPoissonArrivals(t *testing.T) {
	a := poissonArrivals(7, 2000, 4)
	b := poissonArrivals(7, 2000, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not reproducible at %d: %d != %d", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d: %d < %d", i, a[i], a[i-1])
		}
	}
	meanGap := float64(a[len(a)-1]) / float64(len(a))
	if meanGap < 200 || meanGap > 300 { // 1000/4 = 250 ± sampling error
		t.Fatalf("mean interarrival gap %.1f, want ≈250", meanGap)
	}
	if c := poissonArrivals(8, 100, 4); c[len(c)-1] == a[99] {
		t.Fatal("different seeds produced the same schedule")
	}
}

// TestServiceMetricsSanity: a healthy run completes every offered
// request and the quantiles are ordered.
func TestServiceMetricsSanity(t *testing.T) {
	app := DefaultServer()
	app.Requests = 24
	res, err := Run(app, smallCfg(4), "dsm")
	if err != nil {
		t.Fatal(err)
	}
	s := res.Service
	if s == nil {
		t.Fatal("server result has no service metrics")
	}
	if s.Offered != 24 || s.Completed != 24 {
		t.Fatalf("offered/completed = %d/%d, want 24/24", s.Offered, s.Completed)
	}
	p50, p99 := s.P50(), s.P99()
	if p50 == 0 || p50 > p99 || p99 > s.Latency.Max() {
		t.Fatalf("quantiles out of order: p50=%d p99=%d max=%d", p50, p99, s.Latency.Max())
	}
	if s.Throughput(res.Cycles) <= 0 {
		t.Fatal("throughput not positive")
	}
}

// TestServiceLatencyGrowsWithLoad is the open-loop saturation signature:
// offered load beyond capacity must blow up the tail latency, because
// arrivals keep coming on schedule while handlers fall behind.
func TestServiceLatencyGrowsWithLoad(t *testing.T) {
	run := func(load float64) *Result {
		app := DefaultServer()
		app.Requests = 48
		app.Load = load
		res, err := Run(app, smallCfg(4), "dsm")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	light := run(1)
	heavy := run(40)
	if lp, hp := light.Service.P99(), heavy.Service.P99(); hp <= 2*lp {
		t.Fatalf("p99 under overload (%d) not ≫ p99 under light load (%d)", hp, lp)
	}
	// Saturation throughput: the overloaded run sustains more completions
	// per cycle than the lightly loaded one (which idles between requests).
	if lt, ht := light.Service.Throughput(light.Cycles), heavy.Service.Throughput(heavy.Cycles); ht <= lt {
		t.Fatalf("saturation throughput %.3f not above light-load %.3f", ht, lt)
	}
}

// TestStreamMatchesExpected: the sink digest equals the pure-function
// expectation on a coherence backend and on DSM.
func TestStreamMatchesExpected(t *testing.T) {
	for _, backend := range []string{"swcc", "dsm"} {
		app := DefaultStream()
		app.Frames = 16
		res, err := Run(app, smallCfg(4), backend)
		if err != nil {
			t.Fatal(err)
		}
		if want := streamDigest(app.Frames, app.FrameWords, 1, app.Stages); res.Checksum != want {
			t.Fatalf("%s: stream digest %#x != expected %#x", backend, res.Checksum, want)
		}
		if res.Service.Completed != uint64(app.Frames) {
			t.Fatalf("%s: sink metered %d frames, want %d", backend, res.Service.Completed, app.Frames)
		}
	}
}

// TestStreamBackpressure: a deeper FIFO admits the overloaded stream
// faster than a shallow one (the source blocks in Push when full), which
// is exactly the backpressure mechanism working.
func TestStreamBackpressure(t *testing.T) {
	run := func(depth int) sim.Time {
		app := DefaultStream()
		app.Frames = 16
		app.Load = 50 // far beyond stage capacity: FIFO depth dominates
		app.Depth = depth
		res, err := Run(app, smallCfg(4), "dsm")
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if shallow, deep := run(2), run(8); deep >= shallow {
		t.Fatalf("deeper FIFO (%d cycles) not faster than shallow (%d cycles) under overload", deep, shallow)
	}
}

// TestKVStoreHotKeySkew: the hot-key mix must put more lock traffic on
// shard 0 than a uniform mix — the contention scenario the adaptive
// backend targets.
func TestKVStoreHotKeySkew(t *testing.T) {
	run := func(hotPct int) *Result {
		app := DefaultKVStore()
		app.Ops = 48
		app.Load = 50   // overloaded: ops queue up on the shard locks
		app.ReadPct = 0 // all PUTs: every op serializes on its shard
		app.HotPct = hotPct
		res, err := Run(app, smallCfg(4), "dsm")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	skewed := run(90)
	uniform := run(0)
	if skewed.Checksum == uniform.Checksum {
		t.Fatal("hot-key fraction did not change the op mix")
	}
	if skewed.Total.LockWait <= uniform.Total.LockWait {
		t.Fatalf("hot-key skew lock wait %d not above uniform %d",
			skewed.Total.LockWait, uniform.Total.LockWait)
	}
}
