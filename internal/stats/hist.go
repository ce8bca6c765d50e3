package stats

import (
	"math"
	"math/bits"
)

// Hist is an exact, deterministic latency histogram over uint64 values
// (simulated cycles). The bucket layout is fixed — HDR-style log-spaced:
// values 0..7 get one bucket each, and every power-of-two octave above
// that is split into 8 linear sub-buckets, so the relative quantization
// error is bounded by 1/8 at every magnitude. With fixed boundaries and
// integer counts, two histograms built from the same multiset of values
// are identical regardless of insertion order — the property the sweep's
// any-worker-count byte-identity guarantee needs.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	// 8 exact buckets for 0..7, then 8 sub-buckets for each of the 61
	// octaves [2^3,2^4) .. [2^63,2^64).
	histBuckets = 8 + 61*8
)

// bucketIndex maps a value to its fixed bucket.
func bucketIndex(v uint64) int {
	if v < 8 {
		return int(v)
	}
	msb := bits.Len64(v) - 1        // 3..63
	sub := (v >> (msb - 3)) & 7     // top-3 bits below the leading one
	return 8 + (msb-3)*8 + int(sub) // octave group, linear sub-bucket
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) uint64 {
	if i < 8 {
		return uint64(i)
	}
	g := (i - 8) / 8   // octave group: leading bit at position g+3
	sub := (i - 8) % 8 // linear sub-bucket within the octave
	width := uint64(1) << g
	lo := uint64(1)<<(g+3) + uint64(sub)*width
	return lo + width - 1
}

// Add records one value.
func (h *Hist) Add(v uint64) {
	h.counts[bucketIndex(v)]++
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Max returns the exact largest value (0 when empty).
func (h *Hist) Max() uint64 { return h.max }

// Quantile returns the value at quantile q in [0,1]: the upper bound of
// the bucket containing the rank-⌈q·n⌉ value (clamped to the observed
// max, so Quantile(1) is exact). Values below 8 and within octave 3 are
// bucket-exact; above that the result over-reports by at most one bucket
// width (≤ 12.5 % of the value). Deterministic: a pure function of the
// integer bucket counts.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}
