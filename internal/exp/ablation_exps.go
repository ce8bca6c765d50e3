package exp

import (
	"fmt"
	"io"

	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/stats"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// This file registers the ablations DESIGN.md §7 calls out — design
// choices the paper makes implicitly, quantified.

func init() {
	register(Experiment{
		ID:    "ablation-locks",
		Title: "distributed asymmetric lock vs centralized TAS over SDRAM",
		Paper: "ref [15]: waiters spin on local memory; centralized spinning loads the shared bus",
		Run:   runAblationLocks,
	})
	register(Experiment{
		ID:    "ablation-release",
		Title: "eager vs lazy release (exit_x flush policy)",
		Paper: "Section V-A: exit_x may keep modifications local until another process acquires",
		Run: declare(func(o Options) grid {
			// makeScaled shrinks Reacquire to the CI iteration count at small scale.
			return grid{
				apps: []string{"reacquire"}, backends: []string{"swcc", "swcc-lazy"}, tiles: []int{o.tiles(8)},
				portable: true, // lazy release must not lose data
				cols: []field{backendCol, cyclesCol,
					{"flushes", 10, func(c cell) string { return fmt.Sprint(c.FlushInstrs) }},
					{"writebacks", 12, func(c cell) string { return fmt.Sprint(c.FlushStall) }},
					checksumCol,
					{"gain", 8, func(c cell) string {
						return fmt.Sprintf("%.1f%%", stats.Speedup(c.peer("swcc", c.Tiles).Result.Cycles, c.Result.Cycles))
					}}},
				note: "lazy release wins (gain over eager swcc) on this re-acquire-heavy pattern: data\n" +
					"stays cached across scopes of the same tile and is flushed only on real\n" +
					"ownership transfer.",
			}
		}),
	})
	register(Experiment{
		ID:    "ablation-scaling",
		Title: "core-count scaling of noCC vs SWCC",
		Paper: "hardware coherency limits scalability (Section VI-A); SWCC's advantage grows with cores",
		Run: declare(func(o Options) grid {
			return grid{
				apps: []string{"raytrace"}, backends: []string{"nocc", "swcc"},
				tiles: o.scaled([]int{1, 4, 8}, []int{1, 2, 4, 8, 16, 32}),
				make: func(c sweep.Cell) (workloads.App, error) {
					// Work grows with the tile count (weak scaling): the
					// per-core share stays constant while bus contention
					// grows.
					ray := workloads.DefaultRaytrace()
					ray.Cells, ray.Rays, ray.StepsPerRay = 48, 16*c.Tiles, 4
					return ray, nil
				},
				pivots: []field{
					{"cycles:", 10, cycles},
					{"gain over nocc:", 10, func(c cell) string {
						return fmt.Sprintf("%.1f%%", 100*(1-float64(c.Cycles)/float64(c.peer("nocc", c.Tiles).Cycles)))
					}},
				},
				note: "uncached shared reads all contend on the single bus, so the noCC penalty\n" +
					"grows with the core count while SWCC converts them into per-scope line fills.",
			}
		}),
	})
	register(Experiment{
		ID:    "ablation-dcache",
		Title: "D-cache capacity sweep under SWCC vs SPM",
		Paper: "the SPM advantage is protocol (copy once, concurrent readers), not capacity",
		Run:   runAblationDCache,
	})
	register(Experiment{
		ID:    "ablation-granularity",
		Title: "annotation granularity: one scope over many words vs one scope per word",
		Paper: "a single acquire/release pair can contain multiple writes (Section IV-D)",
		Run:   runAblationGranularity,
	})
	register(Experiment{
		ID:    "bulk-ablation",
		Title: "transfer granularity: v1 word loops vs v2 ranged block transfers",
		Paper: "the runtime layer is block-oriented (staging, write sets, line flushes); the access API should be too",
		Run:   declare(bulkAblation),
	})
}

func runAblationLocks(w io.Writer, o Options) error {
	tiles := o.tiles(8)
	iters := 200
	if !o.full() {
		iters = 40
	}
	fmt.Fprintf(w, "%-13s %10s %12s %12s\n", "locks", "cycles", "bus grants", "noc msgs")
	for _, kind := range []soc.LockKind{soc.LockDistributed, soc.LockCentralized} {
		cfg := sysConfig(tiles)
		cfg.Locks = kind
		app := workloads.DefaultReacquire()
		app.Iters = iters
		app.CrossEvery = 4 // heavy cross-tile contention
		sys, err := soc.New(cfg)
		if err != nil {
			return err
		}
		r := rt.New(sys, rt.SWCC())
		app.Setup(r, tiles)
		for t := 0; t < tiles; t++ {
			t := t
			r.Spawn(t, "w", func(c *rt.Ctx) { app.Worker(c, t, tiles) })
		}
		if err := r.Run(); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-13s %10d %12d %12d\n",
			kind, sys.K.Now(), sys.SDRAM.Grants(), sys.Net.Stats().Messages)
	}
	fmt.Fprintln(w, "\ncentralized TAS spinning occupies the shared bus that all data accesses need;")
	fmt.Fprintln(w, "the distributed lock keeps waiting local and pays only per-handoff messages.")
	return nil
}

func runAblationDCache(w io.Writer, o Options) error {
	tiles := o.tiles(8)
	me := workloads.DefaultMotionEst()
	if !o.full() {
		me.BlocksX, me.BlocksY = 4, 2
	}
	fmt.Fprintf(w, "%-22s %10s\n", "configuration", "cycles")
	for _, kib := range []int{2, 8, 32} {
		cfg := sysConfig(tiles)
		cfg.DCache.Size = kib * 1024
		m := *me
		res, err := workloads.Run(&m, cfg, "swcc")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "swcc, %2d KiB D-cache   %10d\n", kib, res.Cycles)
	}
	m := *me
	res, err := workloads.Run(&m, sysConfig(tiles), "spm")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %10d\n", "spm", res.Cycles)
	fmt.Fprintln(w, "\ngrowing the cache does not close the gap: SWCC still serializes read-only")
	fmt.Fprintln(w, "scopes on the object lock and re-fills after every exit_ro invalidation.")
	return nil
}

// bulkAblation sweeps the transfer granularity of the bulkcopy stream
// kernel — 1 word (the v1 Read32/Write32 loop) up to whole-object ranged
// transfers — across all four backends. Identical data movement at every
// granularity (the grid-wide checksum assertion), different sim-cycles:
// the block path must win on DSM and SPM, whose local-memory DMA overlaps
// the read and write ports.
func bulkAblation(o Options) grid {
	grans := []int{1, 2, 4, 8, 16, 32, 64}
	slotWords := 64
	if !o.full() {
		grans = []int{1, 4, 32}
		slotWords = 32
	}
	apps := make([]string, len(grans))
	for i, g := range grans {
		apps[i] = fmt.Sprintf("bulk-g%d", g)
	}
	tiles := o.tiles(8)
	return grid{
		apps: apps, backends: []string{"nocc", "swcc", "dsm", "spm"}, tiles: []int{tiles},
		make: func(c sweep.Cell) (workloads.App, error) {
			var g int
			if _, err := fmt.Sscanf(c.App, "bulk-g%d", &g); err != nil {
				return nil, fmt.Errorf("bulk-ablation: bad cell app %q: %w", c.App, err)
			}
			b := workloads.DefaultBulkCopy()
			b.SlotWords = slotWords
			if !o.full() {
				b.Rounds = 2
			}
			b.Chunk = g
			return b, nil
		},
		pivots: []field{{fmt.Sprintf("cycles by transfer granularity (bulk-gN: N words per operation), %d-word objects:", slotWords),
			10, cycles}},
		check: func(w io.Writer, t *sweep.Table) error {
			// The labels name one computation, so the checksum must
			// agree grid-wide, not just per label.
			for _, r := range t.Rows {
				if r.Checksum != t.Rows[0].Checksum {
					return fmt.Errorf("bulk-ablation: checksum diverged at %s/%s: %#x != %#x — a granularity changed the computation",
						r.App, r.Backend, r.Checksum, t.Rows[0].Checksum)
				}
			}
			// Whole-object transfers must beat word loops on the
			// local-memory backends.
			for _, b := range []string{"dsm", "spm"} {
				word := t.Find(apps[0], b, tiles, noc.TopoRing)
				block := t.Find(apps[len(apps)-1], b, tiles, noc.TopoRing)
				if block.Cycles >= word.Cycles {
					return fmt.Errorf("bulk-ablation: block transfers (%d cycles) do not beat word loops (%d) on %s",
						block.Cycles, word.Cycles, b)
				}
				fmt.Fprintf(w, "\n%s: block transfers win %.1f%% over word loops", b,
					100*(1-float64(block.Cycles)/float64(word.Cycles)))
			}
			fmt.Fprintln(w)
			return nil
		},
		note: "every granularity moves identical data (checksums equal grid-wide); the cycle\n" +
			"deltas are pure transfer mechanics: burst line fills and full-line installs on\n" +
			"swcc, overlapped dual-port DMA on dsm/spm. spm's margin comes entirely from the\n" +
			"in-scope copies: entry/exit staging already moves the whole object as one burst\n" +
			"at every granularity, so it shrinks as scope overhead grows with scale.",
	}
}

// runAblationGranularity compares one entry/exit pair around a batch of
// updates against one pair per word.
func runAblationGranularity(w io.Writer, o Options) error {
	tiles := o.tiles(4)
	words := 16
	iters := 24
	if o.full() {
		iters = 96
	}
	run := func(fine bool) (uint64, error) {
		sys, err := soc.New(sysConfig(tiles))
		if err != nil {
			return 0, err
		}
		r := rt.New(sys, rt.SWCC())
		objs := make([]*rt.Object, tiles)
		for i := range objs {
			objs[i] = r.Alloc(fmt.Sprintf("arr%d", i), words*4)
		}
		for t := 0; t < tiles; t++ {
			t := t
			r.Spawn(t, "w", func(c *rt.Ctx) {
				c.SetCodeFootprint(1024)
				o := objs[t]
				for i := 0; i < iters; i++ {
					if fine {
						for wd := 0; wd < words; wd++ {
							c.EntryX(o)
							c.Write32(o, 4*wd, c.Read32(o, 4*wd)+1)
							c.ExitX(o)
						}
					} else {
						c.EntryX(o)
						for wd := 0; wd < words; wd++ {
							c.Write32(o, 4*wd, c.Read32(o, 4*wd)+1)
						}
						c.ExitX(o)
					}
					c.Compute(30)
				}
			})
		}
		if err := r.Run(); err != nil {
			return 0, err
		}
		return uint64(sys.K.Now()), nil
	}
	coarse, err := run(false)
	if err != nil {
		return err
	}
	fine, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "one scope per batch of %d words: %10d cycles\n", words, coarse)
	fmt.Fprintf(w, "one scope per word:             %10d cycles (%.1fx)\n", fine, float64(fine)/float64(coarse))
	fmt.Fprintln(w, "\nscopes amortize the lock round-trip and the exit flush over many accesses —")
	fmt.Fprintln(w, "the reason the model allows multiple writes per acquire/release pair.")
	return nil
}
