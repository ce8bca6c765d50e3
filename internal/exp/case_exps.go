package exp

import (
	"fmt"
	"io"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/stats"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// This file registers the case-study experiments: Table II, Fig. 7, Fig. 8
// (software cache coherency on the SPLASH-2 substitutes), Fig. 9 (the
// multi-reader/-writer FIFO on DSM) and Fig. 10 (motion estimation on SPM).

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "implementation of the annotations on the three architectures",
		Paper: "software cache coherency / DSM over write-only interconnect / SPM and SDRAM",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "distributed memory architecture (system topology)",
		Paper: "tiles with local dual-port memories, write-only NoC access to others, shared SDRAM",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "execution-time breakdown: uncached shared data vs software cache coherency",
		Paper: "SWCC improves execution time 22% on average; RADIOSITY utilization 38%→70%; flush instruction overhead 0.66/0.00/0.01%",
		Run: declare(func(o Options) grid {
			return grid{
				apps: splashApps, backends: []string{"nocc", "swcc"}, tiles: []int{o.tiles(32)},
				portable: true, check: fig8Report,
			}
		}),
	})
	register(Experiment{
		ID:    "fig9",
		Title: "multi-reader/multi-writer FIFO on distributed shared memory",
		Paper: "pointers are polled only from local memory; the FIFO behaves correctly on all architectures",
		Run: declare(func(o Options) grid {
			fifo := workloads.DefaultMFifo()
			if o.full() {
				fifo.Items = 256
				fifo.Readers, fifo.Writers = 3, 3
			}
			items := fifo.Writers * fifo.Items
			return grid{
				apps: []string{"mfifo"}, backends: rt.Backends, tiles: []int{o.tiles(8)},
				make: clone(fifo),
				cols: []field{backendCol, cyclesCol,
					{"cycles/item", 12, func(c cell) string {
						return fmt.Sprintf("%.0f", float64(c.Cycles)/float64(items))
					}},
					nocMsgsCol,
					{"noc bytes", 10, func(c cell) string { return fmt.Sprint(c.NoCBytes) }},
					// The per-reader stream agreement is asserted by the
					// test suite (TestMFifoDeliversEverywhere); here a zero
					// content digest would mean no data flowed at all.
					{"verified", 8, func(c cell) string {
						if c.Checksum == 0 {
							return "NO DATA"
						}
						return "yes"
					}}},
				note: fmt.Sprintf("DSM property: NoC traffic scales with items (%d), not poll iterations —\n"+
					"read/write pointers are polled from local memory only (Section VI-B).", items),
			}
		}),
	})
	register(Experiment{
		ID:    "fig10",
		Title: "motion estimation on scratch-pad memories",
		Paper: "significant performance increase using SPMs compared to the software cache coherency setup",
		Run: declare(func(o Options) grid {
			me := workloads.DefaultMotionEst()
			if o.full() {
				me.BlocksX, me.BlocksY, me.Search = 8, 6, 4
			}
			return grid{
				apps: []string{"motionest"}, backends: []string{"nocc", "swcc", "spm"}, tiles: []int{o.tiles(8)},
				make: clone(me),
				cols: []field{backendCol, cyclesCol,
					{"speedup", 10, func(c cell) string {
						return fmt.Sprintf("%.2fx", float64(c.peer("nocc", c.Tiles).Cycles)/float64(c.Cycles))
					}},
					{"copy%", 10, func(c cell) string {
						copyPct := 0.0
						if tot := float64(c.Result.Total.Total()); tot > 0 {
							copyPct = 100 * float64(c.CopyStall) / tot
						}
						return fmt.Sprintf("%.1f%%", copyPct)
					}}},
				note: "spm > swcc: the SPM copy is paid once per scope while the search re-reads\n" +
					"the window hundreds of times, and read-only scopes stay concurrent (the SPM\n" +
					"lock is held only during the copy, Table II).",
			}
		}),
	})
}

// msgPassGrid runs the annotated message-passing program on every backend
// of Table II and reports delivery. table2 and fig6 both end with it.
func msgPassGrid(o Options) grid {
	want := workloads.DefaultMsgPass().Expected()
	return grid{
		apps: []string{"msgpass"}, backends: rt.Backends, tiles: []int{o.tiles(4)},
		cols: []field{backendCol, cyclesCol,
			{"result", 8, func(c cell) string {
				if c.Checksum != want {
					return "WRONG"
				}
				return "42 ok"
			}},
			nocMsgsCol,
			{"flushes", 8, func(c cell) string { return fmt.Sprint(c.FlushInstrs) }}},
	}
}

func runTable2(w io.Writer, o Options) error {
	fmt.Fprintln(w, `annotation   nocc/SC                swcc                         dsm                           spm
entry_x      acquire lock           acquire lock (object not     acquire lock; on transfer     acquire lock; copy SDRAM
                                    cached outside scopes)       prev owner pushes object      into local SPM copy
exit_x       release lock           flush+invalidate object      release (lazy; data moves     copy back to SDRAM;
                                    lines; release lock          at next transfer)             release lock
entry_ro     lock if > 1 word       lock if > 1 word; reads      lock if > 1 word; reads       copy in (lock only during
                                    warm the cache               hit the local replica         the copy); then lock-free
exit_ro      unlock                 invalidate lines; unlock     unlock                        discard the copy
fence        no instructions (in-order core; compiler barrier only) on every backend
flush        nullified              flush+invalidate lines       broadcast object to all       copy back to SDRAM
                                                                 other local memories

measured effects of the same annotated program on each backend:`)
	return msgPassGrid(o).run(w, o)
}

func runFig7(w io.Writer, o Options) error {
	cfg := sysConfig(o.tiles(32))
	fmt.Fprintf(w, "tiles: %d, each with:\n", cfg.Tiles)
	fmt.Fprintf(w, "  I-cache: %d B, %d-way, %d B lines\n", soc.ICacheBytes, soc.CacheWays, mem.LineSize)
	fmt.Fprintf(w, "  D-cache: %d B, %d-way, %d B lines (write-back, non-coherent; control ops: invalidate, flush+invalidate)\n",
		cfg.DCacheBytes, soc.CacheWays, mem.LineSize)
	fmt.Fprintf(w, "  local dual-port memory: %d KiB (1-cycle core port, NoC write port)\n", soc.LocalBytes/1024)
	fmt.Fprintf(w, "shared SDRAM: %d MiB, %d-bank pipelined controller (word %d cy, line burst %d cy, channel %d/%d cy)\n",
		cfg.SDRAMBytes>>20, mem.Banks, mem.WordLat, mem.LineLat, mem.ChannelWordLat, mem.ChannelLineLat)
	fmt.Fprintf(w, "NoC: write-only bidirectional ring, %d cy/hop, %d B/flit, injection %d cy\n",
		noc.HopLat, noc.FlitSize, noc.InjLat)
	fmt.Fprintf(w, "locks: %s (asymmetric, spin on local memory; ref [15])\n", cfg.Locks)
	return nil
}

// fig8Report renders the Fig. 8 breakdown of a grid whose rows pair each
// SPLASH substitute's nocc run with its swcc run.
func fig8Report(w io.Writer, t *sweep.Table) error {
	samples := make(map[string][]stats.Sample)
	var all []stats.Sample
	for _, r := range t.Rows {
		samples[r.App] = append(samples[r.App], r.Result.Sample())
		all = append(all, r.Result.Sample())
	}
	fmt.Fprintln(w)
	stats.RenderFig8(w, samples, splashApps)
	fmt.Fprintln(w)
	stats.RenderExtended(w, all)
	fmt.Fprintln(w)
	var sum float64
	for i := 0; i < len(t.Rows); i += 2 {
		no, sw := t.Rows[i].Result, t.Rows[i+1].Result
		sp := stats.Speedup(no.Cycles, sw.Cycles)
		sum += sp
		fmt.Fprintf(w, "%-10s exec time improvement: %5.1f%%   utilization %4.1f%% -> %4.1f%%   flush instr overhead %.2f%%\n",
			no.App, sp, 100*no.Utilization(), 100*sw.Utilization(), sw.FlushOverheadPct())
	}
	fmt.Fprintf(w, "average improvement: %.1f%%   (paper: 22%%)\n", sum/float64(len(t.Rows)/2))
	return nil
}
