package workloads

import (
	"fmt"

	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/stats"
)

// Stream is the streaming pipeline under open-loop traffic: a source
// tile admits frames on a deterministic Poisson schedule, Stages
// transform tiles rework them, and a sink folds the digest — all
// connected by the Fig. 9 FIFO, whose bounded depth provides
// backpressure. When the offered load exceeds the slowest stage's
// capacity the source stalls in Push (the FIFO fills) but arrivals keep
// accumulating on the schedule, so per-frame latency (sink completion −
// scheduled arrival) grows without bound — the open-loop saturation
// signature.
type Stream struct {
	// Frames is the total offered frame count.
	Frames int
	// Load is the offered load in frames per kilocycle.
	Load float64
	// Stages is the number of transform stages (pipeline tiles used =
	// Stages + 2 for source and sink).
	Stages int
	// FrameWords is the frame payload size in words.
	FrameWords int
	// Depth is each FIFO's buffer depth (the backpressure bound).
	Depth int
	// Work is the modelled per-frame compute of each transform stage.
	Work int
	// Seed drives the arrival schedule.
	Seed uint32

	arrivals []sim.Time
	fifos    []*Fifo
	result   *rt.Object
	svc      *stats.Service
}

// DefaultStream returns the evaluation configuration.
func DefaultStream() *Stream {
	return &Stream{Frames: 96, Load: 3, Stages: 2, FrameWords: 8, Depth: 4, Work: 100, Seed: 3}
}

// Name implements App.
func (a *Stream) Name() string { return "stream" }

// tilesUsed is the pipeline's tile footprint: source + Stages + sink.
func (a *Stream) tilesUsed() int { return a.Stages + 2 }

// Setup implements App.
func (a *Stream) Setup(r *rt.Runtime, tiles int) {
	if a.tilesUsed() > tiles {
		panic(fmt.Sprintf("stream: %d pipeline tiles > %d tiles", a.tilesUsed(), tiles))
	}
	a.arrivals = poissonArrivals(a.Seed, a.Frames, a.Load)
	a.fifos = make([]*Fifo, a.Stages+1)
	for i := range a.fifos {
		a.fifos[i] = NewFifo(r, fmt.Sprintf("stream%d", i), a.Depth, a.FrameWords, 1)
	}
	a.result = r.Alloc("stream-result", 4)
	a.svc = &stats.Service{Offered: uint64(a.Frames)}
}

// Worker implements App: tile 0 sources on the arrival schedule, tiles
// [1,Stages] transform, tile Stages+1 sinks; the rest idle.
func (a *Stream) Worker(c *rt.Ctx, tile, tiles int) {
	if tile >= a.tilesUsed() {
		return
	}
	c.SetCodeFootprint(2 * 1024)
	switch {
	case tile == 0: // source: admit frames open-loop
		for i := 0; i < a.Frames; i++ {
			c.WaitUntil(a.arrivals[i])
			frame := make([]uint32, a.FrameWords)
			for w := range frame {
				frame[w] = uint32(i)<<8 | uint32(w)
			}
			c.Compute(a.Work / 2)
			a.fifos[0].Push(c, frame) // blocks on backpressure
		}
	case tile <= a.Stages: // transform stages
		for i := 0; i < a.Frames; i++ {
			frame := a.fifos[tile-1].Pop(c, 0)
			c.Compute(a.Work)
			transform(tile, frame)
			a.fifos[tile].Push(c, frame)
		}
	default: // sink: digest + latency metering
		var digest uint32
		for i := 0; i < a.Frames; i++ {
			frame := a.fifos[a.Stages].Pop(c, 0)
			for _, v := range frame {
				digest = digest*16777619 + v
			}
			c.Compute(a.Work / 2)
			// The single-reader FIFO chain preserves order, so the i-th
			// pop is frame i and its scheduled arrival is arrivals[i].
			a.svc.Record(a.arrivals[i], c.Now())
		}
		c.EntryX(a.result)
		c.Write32(a.result, 0, digest)
		c.ExitX(a.result)
	}
}

// Checksum implements App.
func (a *Stream) Checksum(r *rt.Runtime) uint32 {
	return r.ReadObjectWord(a.result, 0)
}

// Service implements ServiceApp.
func (a *Stream) Service() *stats.Service { return a.svc }
