package mem

import "pmc/internal/sim"

// This file holds the banked SDRAM timing model. The paper's platform uses
// a pipelined DDR memory controller: independent banks overlap row access
// while a single data channel serializes transfers. We model exactly that
// two-stage structure: an access reserves its bank for the access latency
// (WordLat or LineLat), then the shared channel for the transfer
// (ChannelWordLat or ChannelLineLat). A single word pays nearly the full
// row-access latency; a line burst amortizes it over eight words — the
// asymmetry that makes uncached shared data expensive (Fig. 8).

// The SDRAM timing of the paper's platform.
const (
	// LineSize is the burst length in bytes of a line access, and the
	// line size of both caches of every tile.
	LineSize = 32
	// Banks is the number of independent banks, interleaved per line.
	Banks = 16
	// WordLat and LineLat are the bank occupancy of a word (4 B) access
	// and of a LineSize burst.
	WordLat sim.Time = 14
	LineLat sim.Time = 28
	// ChannelWordLat and ChannelLineLat are the shared channel's
	// transfer time of a word and of a line.
	ChannelWordLat sim.Time = 2
	ChannelLineLat sim.Time = 8
)

// bankFor routes an address to a bank, interleaved at line granularity so
// consecutive lines hit different banks.
func (s *SDRAM) bankFor(addr Addr) *sim.Resource {
	return &s.banks[uint32(addr)/LineSize%Banks]
}

// reserve books bank service then channel transfer, starting no earlier
// than t, and returns when the data is on the requester's side.
func (s *SDRAM) reserve(t sim.Time, addr Addr, bankLat, chanLat sim.Time) (end sim.Time) {
	_, bankEnd := s.bankFor(addr).Reserve(t, bankLat)
	_, end = s.channel.Reserve(bankEnd, chanLat)
	return end
}

// AccessWord performs a timed single-word access on behalf of p and
// returns the stall cycles. The data movement is the caller's concern.
func (s *SDRAM) AccessWord(p *sim.Proc, addr Addr) (stall sim.Time) {
	t0 := p.Now()
	p.WaitUntil(s.reserve(t0, addr, WordLat, ChannelWordLat))
	return p.Now() - t0
}

// AccessLine performs a timed line-burst access on behalf of p.
func (s *SDRAM) AccessLine(p *sim.Proc, addr Addr) (stall sim.Time) {
	t0 := p.Now()
	p.WaitUntil(s.reserve(t0, addr, LineLat, ChannelLineLat))
	return p.Now() - t0
}

// AccessLines performs a timed multi-line burst transaction on behalf of
// p: one row-access latency up front (the line-interleaved banks overlap
// their activates behind the first), then the shared channel streams the
// lines back-to-back. This is the DMA-style transfer the block-move
// runtime layer uses; a loop of AccessLine calls instead re-arbitrates
// per line and pays the full bank latency every time.
func (s *SDRAM) AccessLines(p *sim.Proc, addr Addr, lines int) (stall sim.Time) {
	if lines <= 0 {
		return 0
	}
	t0 := p.Now()
	p.WaitUntil(s.reserve(t0, addr, LineLat, sim.Time(lines)*ChannelLineLat))
	return p.Now() - t0
}

// ReserveWordAt books a posted word access starting at or after t and
// returns its completion time (when the data lands).
func (s *SDRAM) ReserveWordAt(t sim.Time, addr Addr) (end sim.Time) {
	return s.reserve(t, addr, WordLat, ChannelWordLat)
}

// ReserveLineAt books a posted line access starting at or after t.
func (s *SDRAM) ReserveLineAt(t sim.Time, addr Addr) (end sim.Time) {
	return s.reserve(t, addr, LineLat, ChannelLineLat)
}

// Grants returns the total number of bank reservations (the contention
// metric the lock ablation reports).
func (s *SDRAM) Grants() uint64 {
	var n uint64
	for i := range s.banks {
		n += s.banks[i].Grants
	}
	return n
}
