package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is what one run prints as the last line of its standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single declaration of every workload
// and metric. Runs check the metrics they produce against it, so the file
// and the code cannot drift apart.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// complete checks the metrics a run produced against the declared list
// (end-to-end metrics for an untraced run, per-layer ones for a traced
// run) and returns exactly the declared set. Every end-to-end metric must
// be measured; a per-layer metric of a layer the workload never enters
// reads 0.
func (s *benchSpec) complete(m metrics, traced bool) (metrics, error) {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	out := make(metrics, len(want))
	for _, d := range want {
		v, ok := m[d.Name]
		if !ok {
			if !traced {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			v = metric{Unit: d.Unit}
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s: measured in %s, declared in %s", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = v
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// tailLadder lists, in per mille and highest first, the percentiles a
// tail latency is chosen from.
var tailLadder = []int{999, 990, 950, 900, 500}

// tailQuantile returns the highest ladder percentile (as a fraction) that
// has at least ten of n samples beyond it, or 0 when n is too small for
// any.
func tailQuantile(n int) float64 {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of sorted in milliseconds
// (0 for no samples).
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return ms(sorted[i])
}

// setLatency records a latency population's median and tail.
func setLatency(m metrics, name string, d []time.Duration) {
	s := sortedCopy(d)
	m.set(name+"_p50", quantile(s, 0.5), "ms")
	m.set(name+"_tail", quantile(s, tailQuantile(len(s))), "ms")
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(d []time.Duration) time.Duration {
	s := sortedCopy(d)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the three cut points of statistics.quantiles(data,
// n=4) in Python's default "exclusive" method, the spread rule
// BENCHMARK.json bounds are checked with.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		cut[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler samples the process's resident set size every 50 ms. The
// run reports the median sample: the peak depends on when the garbage
// collector happens to run, and across ten seeds it varied two to five
// times as much.
type rssSampler struct {
	stopc, done chan struct{}
	mb          []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				if mb, err := rssMB(); err == nil {
					s.mb = append(s.mb, mb)
				}
			}
		}
	}()
	return s
}

// stop ends the sampling, takes one last sample, and returns the median.
func (s *rssSampler) stop() (float64, error) {
	close(s.stopc)
	<-s.done
	mb, err := rssMB()
	if err != nil {
		return 0, fmt.Errorf("resident set size: %w", err)
	}
	all := append(s.mb, mb)
	sort.Float64s(all)
	return all[len(all)/2], nil
}

// rssMB reads the process's current resident set size.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
