package stats

import (
	"bytes"
	"strings"
	"testing"

	"pmc/internal/sim"
)

// TestBucketBoundaries pins the fixed bucket layout: values 0..7 are
// bucket-exact, each octave above splits into 8 linear sub-buckets, and
// bucketUpper is the inverse (largest value mapping back to the bucket).
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v     uint64
		idx   int
		upper uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{7, 7, 7},
		{8, 8, 8},    // first octave [8,16): width-1 sub-buckets
		{15, 15, 15}, // last exact value
		{16, 16, 17}, // octave [16,32): width-2 sub-buckets
		{17, 16, 17},
		{18, 17, 19},
		{31, 23, 31},
		{32, 24, 35}, // octave [32,64): width-4
		{35, 24, 35},
		{36, 25, 39},
		{63, 31, 63},
		{1024, 8 + 7*8, 1151}, // octave [1024,2048): width-128
		{1151, 8 + 7*8, 1151},
		{1152, 8 + 7*8 + 1, 1279},
		{1 << 62, 8 + 59*8, 1<<62 + 1<<59 - 1},
		{^uint64(0), histBuckets - 1, ^uint64(0)},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.idx)
		}
		if got := bucketUpper(tc.idx); got != tc.upper {
			t.Errorf("bucketUpper(%d) = %d, want %d", tc.idx, got, tc.upper)
		}
	}
	// Structural invariants over the full layout: upper bounds strictly
	// increase, and every upper bound maps back to its own bucket.
	prev := ^uint64(0)
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if i > 0 && u <= prev {
			t.Fatalf("bucketUpper not increasing at %d: %d <= %d", i, u, prev)
		}
		if got := bucketIndex(u); got != i {
			t.Fatalf("bucketUpper(%d)=%d maps back to bucket %d", i, u, got)
		}
		prev = u
	}
}

// TestQuantileEdges drives Quantile through the edge ranks on exact
// (small-value) buckets where the answer must be precise.
func TestQuantileEdges(t *testing.T) {
	cases := []struct {
		name   string
		values []uint64
		q      float64
		want   uint64
	}{
		{"empty", nil, 0.5, 0},
		{"single-q0", []uint64{5}, 0, 5},
		{"single-q1", []uint64{5}, 1, 5},
		{"pair-median", []uint64{1, 3}, 0.5, 1}, // rank ceil(0.5*2)=1
		{"pair-p99", []uint64{1, 3}, 0.99, 3},   // rank 2
		{"ten-p50", []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.5, 4},
		{"ten-p99", []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.99, 9},
		{"ten-p10", []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.1, 0},
		{"repeated", []uint64{4, 4, 4, 4, 7}, 0.5, 4},
		{"q1-clamps-to-max", []uint64{100, 200}, 1, 200}, // upper bound 207 clamped to observed max
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Hist
			for _, v := range tc.values {
				h.Add(v)
			}
			if got := h.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%g) = %d, want %d", tc.q, got, tc.want)
			}
		})
	}
}

// TestQuantileErrorBound: above the exact range, the reported quantile
// over-reports by at most one sub-bucket width (12.5 % of the value).
func TestQuantileErrorBound(t *testing.T) {
	var h Hist
	r := uint32(12345)
	var maxV uint64
	for i := 0; i < 1000; i++ {
		r ^= r << 13
		r ^= r >> 17
		r ^= r << 5
		v := uint64(r % 100000)
		h.Add(v)
		if v > maxV {
			maxV = v
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		if got > maxV {
			t.Errorf("Quantile(%g) = %d exceeds observed max %d", q, got, maxV)
		}
		// The true rank value is ≥ the lower bound of the chosen bucket,
		// so got/(1+1/8) is a lower bound on the true quantile.
		if float64(got) > 1.125*float64(maxV) {
			t.Errorf("Quantile(%g) = %d violates 12.5%% bound (max %d)", q, got, maxV)
		}
	}
}

// TestHistInsertionOrder: the same multiset of values added in any order
// yields an identical histogram — the property the sweep's worker-count
// determinism rests on, since workers complete requests in an order the
// backend's timing decides.
func TestHistInsertionOrder(t *testing.T) {
	var vals []uint64
	r := uint32(1)
	for i := 0; i < 490; i++ {
		r ^= r << 13
		r ^= r >> 17
		r ^= r << 5
		vals = append(vals, uint64(r%5000))
	}
	var fwd, rev, strided Hist
	for i, v := range vals {
		fwd.Add(v)
		rev.Add(vals[len(vals)-1-i])
	}
	for start := 0; start < 7; start++ {
		for i := start; i < len(vals); i += 7 {
			strided.Add(vals[i])
		}
	}
	for _, o := range []Hist{rev, strided} {
		if fwd != o {
			t.Fatalf("insertion order changed the histogram:\n%v\nvs\n%v", fwd, o)
		}
	}
	if fwd.n != 490 {
		t.Fatalf("count %d, want 490", fwd.n)
	}
}

func TestHistStats(t *testing.T) {
	var h Hist
	for _, v := range []uint64{10, 20, 30} {
		h.Add(v)
	}
	// 10 sits in the bucket-exact octave [8,16); 20 shares its width-2
	// bucket with 21.
	if h.Quantile(0) != 10 || h.Quantile(0.5) != 21 || h.Max() != 30 || h.n != 3 {
		t.Fatalf("q0/q50/max/count = %d/%d/%d/%d", h.Quantile(0), h.Quantile(0.5), h.Max(), h.n)
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Fatal("empty histogram stats not zero")
	}
}

// TestServiceRecordQuantiles: Record counts a completion and adds its
// latency (completion − scheduled arrival), and the quantiles, throughput
// and summary read from what was recorded.
func TestServiceRecordQuantiles(t *testing.T) {
	var s Service
	s.Offered = 12
	for i := 0; i < 8; i++ {
		arrive := sim.Time(i * 300)
		s.Record(arrive, arrive+sim.Time(10+i))
	}
	s.Record(2000, 2500)
	s.Record(2493, 2500)
	if s.Offered != 12 || s.Completed != 10 || s.Latency.Max() != 500 {
		t.Fatalf("offered/completed/max = %d/%d/%d", s.Offered, s.Completed, s.Latency.Max())
	}
	if got := s.P50(); got != 13 { // rank 5 of {7,10..17,500}
		t.Fatalf("P50 = %d, want 13", got)
	}
	if got := s.P99(); got != 500 { // rank 10 → bucket of 500, clamped to max
		t.Fatalf("P99 = %d, want 500", got)
	}
	if got := s.Throughput(5000); got != 2 { // 10 per 5000 cycles
		t.Fatalf("Throughput = %f, want 2", got)
	}
	var buf bytes.Buffer
	s.Render(&buf, 5000)
	for _, want := range []string{"p50", "p99", "req/kcycle", "10/12"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("service summary missing %q:\n%s", want, buf.String())
		}
	}
}
