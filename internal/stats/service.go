package stats

import (
	"fmt"
	"io"

	"pmc/internal/sim"
)

// Series is a per-interval time-series of integer counters: completions
// and busy cycles per fixed-width window of simulated time. Like Hist it
// is order-independent (Record only increments integer cells addressed
// by simulated time) and merges element-wise, so it carries the same
// determinism guarantee across worker counts and event-queue kinds.
type Series struct {
	// Interval is the window width in cycles. Fixed at construction;
	// merging series with different intervals is a programming error.
	Interval sim.Time
	// Done[i] counts requests completed in [i*Interval, (i+1)*Interval).
	Done []uint64
	// Busy[i] accumulates handler-busy cycles attributed to window i.
	Busy []uint64
}

// NewSeries returns a series with the given window width (cycles).
func NewSeries(interval sim.Time) *Series {
	if interval <= 0 {
		interval = 1
	}
	return &Series{Interval: interval}
}

func (s *Series) grow(idx int) {
	for len(s.Done) <= idx {
		s.Done = append(s.Done, 0)
		s.Busy = append(s.Busy, 0)
	}
}

// RecordDone counts one completion at time t.
func (s *Series) RecordDone(t sim.Time) {
	idx := int(t / s.Interval)
	s.grow(idx)
	s.Done[idx]++
}

// RecordBusy attributes busy cycles to the window containing t.
func (s *Series) RecordBusy(t sim.Time, cycles sim.Time) {
	idx := int(t / s.Interval)
	s.grow(idx)
	s.Busy[idx] += uint64(cycles)
}

// Merge element-wise adds o into s. Panics if the intervals differ.
func (s *Series) Merge(o *Series) {
	if o == nil {
		return
	}
	if o.Interval != s.Interval {
		panic(fmt.Sprintf("stats: merging series with intervals %d and %d", s.Interval, o.Interval))
	}
	s.grow(len(o.Done) - 1)
	for i := range o.Done {
		s.Done[i] += o.Done[i]
		s.Busy[i] += o.Busy[i]
	}
}

// Service bundles the open-loop service metrics of one run: what load
// was offered, what completed, the exact latency distribution, and the
// per-interval series. Every field is integer-deterministic, so two runs
// of the same configuration produce byte-identical Services regardless
// of sweep worker count or event-queue kind.
type Service struct {
	// Offered is the number of requests in the arrival schedule.
	Offered uint64
	// Completed is the number of requests that finished.
	Completed uint64
	// Latency is the exact histogram of per-request simulated latency
	// (completion cycle − scheduled arrival cycle).
	Latency *Hist
	// Series is the per-interval completion/busy time-series.
	Series *Series
}

// NewService returns an empty Service with the given series interval.
func NewService(interval sim.Time) *Service {
	return &Service{Latency: &Hist{}, Series: NewSeries(interval)}
}

// Merge folds o into s (element-wise on every component).
func (s *Service) Merge(o *Service) {
	if o == nil {
		return
	}
	s.Offered += o.Offered
	s.Completed += o.Completed
	s.Latency.Merge(o.Latency)
	s.Series.Merge(o.Series)
}

// P50 and P99 are the tail-latency quantiles in cycles.
func (s *Service) P50() uint64 { return s.Latency.Quantile(0.50) }
func (s *Service) P99() uint64 { return s.Latency.Quantile(0.99) }

// Throughput returns completions per kilocycle over the makespan — the
// saturation throughput when the offered load exceeds capacity.
func (s *Service) Throughput(makespan sim.Time) float64 {
	if makespan == 0 {
		return 0
	}
	return 1000 * float64(s.Completed) / float64(makespan)
}

// Render prints a compact service summary for experiment reports.
func (s *Service) Render(w io.Writer, makespan sim.Time) {
	fmt.Fprintf(w, "  requests %d/%d  p50 %d  p99 %d  max %d cycles  throughput %.3f req/kcycle\n",
		s.Completed, s.Offered, s.P50(), s.P99(), s.Latency.Max(), s.Throughput(makespan))
}
