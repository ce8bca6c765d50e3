package stats

import (
	"fmt"
	"io"

	"pmc/internal/sim"
)

// Service bundles the open-loop service metrics of one run: what load
// was offered, what completed, and the exact latency distribution. Every
// field is integer-deterministic, so two runs of the same configuration
// produce byte-identical Services regardless of sweep worker count or
// event-queue kind. The zero value is ready to use.
type Service struct {
	// Offered is the number of requests in the arrival schedule.
	Offered uint64
	// Completed is the number of requests that finished.
	Completed uint64
	// Latency is the exact histogram of per-request simulated latency
	// (completion cycle − scheduled arrival cycle).
	Latency Hist
}

// Record counts one request scheduled to arrive at arrive and completed
// at done.
func (s *Service) Record(arrive, done sim.Time) {
	s.Completed++
	s.Latency.Add(uint64(done - arrive))
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
