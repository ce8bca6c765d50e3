package workloads

import (
	"fmt"

	"pmc/internal/rt"
)

// Pipeline chains the Fig. 9 FIFO into a multi-stage streaming pipeline —
// the cyclo-static-dataflow structure of the multimedia applications the
// paper cites as the FIFO's home ([20, 21]): a source tile produces frames,
// each middle stage transforms them, and a sink folds a digest. One FIFO
// connects each pair of adjacent stages; stages map one-to-one onto tiles.
// Because every FIFO is built purely from PMC annotations, the whole
// pipeline is architecture-portable and its output is bit-identical on
// every backend.
type Pipeline struct {
	// Stages is the number of pipeline stages (>= 2: source and sink).
	Stages int
	// Frames is the number of frames pushed by the source.
	Frames int
	// FrameWords is the frame payload size in words.
	FrameWords int
	// Depth is each FIFO's buffer depth.
	Depth int
	// ComputePerFrame models each transform stage's work per frame.
	ComputePerFrame int

	fifos  []*Fifo
	result *rt.Object
}

// DefaultPipeline returns the evaluation configuration.
func DefaultPipeline() *Pipeline {
	return &Pipeline{Stages: 4, Frames: 24, FrameWords: 8, Depth: 4, ComputePerFrame: 120}
}

// Name implements App.
func (a *Pipeline) Name() string { return "pipeline" }

// Setup implements App.
func (a *Pipeline) Setup(r *rt.Runtime, tiles int) {
	if a.Stages < 2 || a.Stages > tiles {
		panic(fmt.Sprintf("pipeline: %d stages on %d tiles", a.Stages, tiles))
	}
	a.fifos = make([]*Fifo, a.Stages-1)
	for i := range a.fifos {
		a.fifos[i] = NewFifo(r, fmt.Sprintf("pipe%d", i), a.Depth, a.FrameWords, 1)
	}
	a.result = r.Alloc("pipe-result", 4)
}

// transform is one stage's per-frame work: a reversible word-wise mix, so
// the sink's digest witnesses every stage having run exactly once per
// frame, in order.
func transform(stage int, frame []uint32) {
	k := uint32(stage)*0x9e3779b9 + 1
	for w := range frame {
		frame[w] = frame[w]*33 + k + uint32(w)
	}
}

// Worker implements App: tile 0 is the source, tile Stages-1 the sink,
// tiles in between transform.
func (a *Pipeline) Worker(c *rt.Ctx, tile, tiles int) {
	if tile >= a.Stages {
		return
	}
	c.SetCodeFootprint(2 * 1024)
	switch {
	case tile == 0: // source
		for i := 0; i < a.Frames; i++ {
			frame := make([]uint32, a.FrameWords)
			for w := range frame {
				frame[w] = uint32(i)<<8 | uint32(w)
			}
			c.Compute(a.ComputePerFrame / 2)
			a.fifos[0].Push(c, frame)
		}
	case tile < a.Stages-1: // transform stages
		for i := 0; i < a.Frames; i++ {
			frame := a.fifos[tile-1].Pop(c, 0)
			c.Compute(a.ComputePerFrame)
			transform(tile, frame)
			a.fifos[tile].Push(c, frame)
		}
	default: // sink
		var digest uint32
		for i := 0; i < a.Frames; i++ {
			frame := a.fifos[a.Stages-2].Pop(c, 0)
			for _, v := range frame {
				digest = digest*16777619 + v
			}
			c.Compute(a.ComputePerFrame / 2)
		}
		c.EntryX(a.result)
		c.Write32(a.result, 0, digest)
		c.ExitX(a.result)
	}
}

// Checksum implements App.
func (a *Pipeline) Checksum(r *rt.Runtime) uint32 {
	return r.ReadObjectWord(a.result, 0)
}
