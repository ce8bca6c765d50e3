package workloads

import (
	"testing"

	"pmc/internal/rt"
	"pmc/internal/soc"
)

func smallCfg(tiles int) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Tiles = tiles
	cfg.MaxCycles = 500_000_000
	return cfg
}

// smallApps returns downsized instances of every workload, fast enough to
// run on each backend in tests.
func smallApps() []App {
	rad := DefaultRadiosity()
	rad.Patches, rad.Rounds, rad.Fanout = 48, 2, 3
	ray := DefaultRaytrace()
	ray.Cells, ray.Rays, ray.StepsPerRay = 48, 40, 4
	vol := DefaultVolrend()
	vol.Bricks, vol.OutTiles, vol.RaysPerTile = 32, 24, 3
	fifo := DefaultMFifo()
	fifo.Items = 12
	me := DefaultMotionEst()
	me.BlocksX, me.BlocksY, me.Search = 4, 2, 2
	st := DefaultStencil()
	st.Iters = 4
	pipe := DefaultPipeline()
	pipe.Frames = 10
	srv := DefaultServer()
	srv.Requests = 24
	kv := DefaultKVStore()
	kv.Ops = 24
	strm := DefaultStream()
	strm.Frames = 16
	return []App{DefaultMsgPass(), rad, ray, vol, fifo, me, st, pipe, srv, kv, strm}
}

// TestAllAppsAllBackends is the portability matrix: every workload runs
// unchanged on every backend and produces the identical checksum.
func TestAllAppsAllBackends(t *testing.T) {
	for _, app := range smallApps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			var want uint32
			var wantSet bool
			for _, backend := range rt.Backends {
				res, err := Run(freshLike(app), smallCfg(4), backend)
				if err != nil {
					t.Fatalf("%s on %s: %v", app.Name(), backend, err)
				}
				if res.Cycles == 0 {
					t.Fatalf("%s on %s: no cycles elapsed", app.Name(), backend)
				}
				if !wantSet {
					want, wantSet = res.Checksum, true
					continue
				}
				if res.Checksum != want {
					t.Errorf("%s on %s: checksum %#x, want %#x (backends must agree)",
						app.Name(), backend, res.Checksum, want)
				}
			}
		})
	}
}

// freshLike returns a new instance with the same parameters (apps carry
// per-run object state, so each Run needs a fresh one).
func freshLike(app App) App {
	switch a := app.(type) {
	case *MsgPass:
		cp := *a
		return &cp
	case *Radiosity:
		cp := *a
		return &cp
	case *Raytrace:
		cp := *a
		return &cp
	case *Volrend:
		cp := *a
		return &cp
	case *MFifo:
		cp := *a
		return &cp
	case *MotionEst:
		cp := *a
		return &cp
	case *Stencil:
		cp := *a
		return &cp
	case *Reacquire:
		cp := *a
		return &cp
	case *Pipeline:
		cp := *a
		return &cp
	case *Server:
		cp := *a
		return &cp
	case *KVStore:
		cp := *a
		return &cp
	case *Stream:
		cp := *a
		return &cp
	}
	panic("unknown app")
}

// TestMsgPassVerifiedAgainstModel runs the quickstart with the model
// recorder on every backend.
func TestMsgPassVerifiedAgainstModel(t *testing.T) {
	for _, backend := range rt.Backends {
		app := DefaultMsgPass()
		res, rec, err := RunVerified(app, smallCfg(3), backend)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := rec.Err(); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := rec.CheckWriteOrder(); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Checksum != app.Expected() {
			t.Fatalf("%s: checksum %#x, want %#x", backend, res.Checksum, app.Expected())
		}
	}
}

// TestMFifoDeliversEverywhere checks the FIFO invariant (every reader got
// the identical full stream) on every backend, including multi-writer.
func TestMFifoDeliversEverywhere(t *testing.T) {
	for _, backend := range rt.Backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			fifo := DefaultMFifo()
			fifo.Items = 16
			b, err := rt.ByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := soc.New(smallCfg(4))
			if err != nil {
				t.Fatal(err)
			}
			r := rt.New(sys, b)
			fifo.Setup(r, 4)
			for i := 0; i < 4; i++ {
				i := i
				r.Spawn(i, "w", func(c *rt.Ctx) { fifo.Worker(c, i, 4) })
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if err := fifo.Verify(r); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMFifoDSMPollsAreLocal: on DSM, poll loops read only local replicas;
// NoC traffic must scale with items pushed, not with poll iterations.
func TestMFifoDSMPollsAreLocal(t *testing.T) {
	fifo := DefaultMFifo()
	fifo.Items = 16
	res, err := Run(fifo, smallCfg(4), "dsm")
	if err != nil {
		t.Fatal(err)
	}
	items := uint64(fifo.Writers * fifo.Items)
	// Per item: one write_ptr flush broadcast (3 messages at 4 tiles),
	// lock protocol messages, and per-reader read_ptr flushes and slot
	// transfers. A generous constant bound per item demonstrates polls
	// are free; bus-based polling would add thousands of messages.
	bound := items * 40
	if res.NoCMessages > bound {
		t.Fatalf("DSM NoC messages = %d for %d items (> %d): polling is not local",
			res.NoCMessages, items, bound)
	}
}

// TestMotionEstSPMBeatsSWCC is the Fig. 10 shape: the scratch-pad mapping
// must outperform software cache coherency on the reuse-heavy kernel, and
// both must beat uncached shared data.
func TestMotionEstSPMBeatsSWCC(t *testing.T) {
	me := DefaultMotionEst()
	me.BlocksX, me.BlocksY = 4, 2
	cycles := map[string]uint64{}
	for _, backend := range []string{"spm", "swcc", "nocc"} {
		res, err := Run(freshLike(me), smallCfg(4), backend)
		if err != nil {
			t.Fatal(err)
		}
		cycles[backend] = uint64(res.Cycles)
	}
	if cycles["spm"] >= cycles["swcc"] {
		t.Fatalf("spm (%d) not faster than swcc (%d)", cycles["spm"], cycles["swcc"])
	}
	if cycles["swcc"] >= cycles["nocc"] {
		t.Fatalf("swcc (%d) not faster than nocc (%d)", cycles["swcc"], cycles["nocc"])
	}
}

// TestFig8ShapeSmall is the headline Fig. 8 comparison at test scale: for
// each of the three applications SWCC must beat noCC in total execution
// time, and the flush overhead must stay negligible.
func TestFig8ShapeSmall(t *testing.T) {
	for _, app := range smallApps()[1:4] { // radiosity, raytrace, volrend
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			no, err := Run(freshLike(app), smallCfg(8), "nocc")
			if err != nil {
				t.Fatal(err)
			}
			sw, err := Run(freshLike(app), smallCfg(8), "swcc")
			if err != nil {
				t.Fatal(err)
			}
			if sw.Cycles >= no.Cycles {
				t.Errorf("swcc %d cycles >= nocc %d cycles", sw.Cycles, no.Cycles)
			}
			if pct := sw.FlushOverheadPct(); pct > 2.5 {
				t.Errorf("flush overhead %.2f%% not negligible", pct)
			}
			if sw.Utilization() <= no.Utilization() {
				t.Errorf("utilization did not improve: %.2f -> %.2f", no.Utilization(), sw.Utilization())
			}
		})
	}
}

// TestDeterminismAcrossRuns: the same configuration twice gives identical
// cycle counts and checksums.
func TestDeterminismAcrossRuns(t *testing.T) {
	app := func() App {
		a := DefaultRaytrace()
		a.Cells, a.Rays, a.StepsPerRay = 16, 30, 3
		return a
	}
	r1, err := Run(app(), smallCfg(4), "swcc")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(app(), smallCfg(4), "swcc")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Checksum != r2.Checksum {
		t.Fatalf("nondeterministic: (%d,%#x) vs (%d,%#x)", r1.Cycles, r1.Checksum, r2.Cycles, r2.Checksum)
	}
}

// TestPipelineMatchesExpected: the pipeline's sink digest equals the
// independently computed pure-function digest on every backend.
func TestPipelineMatchesExpected(t *testing.T) {
	for _, backend := range rt.Backends {
		p := DefaultPipeline()
		p.Frames = 12
		res, err := Run(p, smallCfg(4), backend)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Checksum != p.Expected() {
			t.Fatalf("%s: digest %#x, want %#x", backend, res.Checksum, p.Expected())
		}
	}
}

// TestPipelineOverlapsStages: with enough frames the stages run
// concurrently — the makespan is far below the serial sum of stage work.
func TestPipelineOverlapsStages(t *testing.T) {
	p := DefaultPipeline()
	p.Frames = 24
	res, err := Run(p, smallCfg(4), "dsm")
	if err != nil {
		t.Fatal(err)
	}
	// Serial bound: every frame through every stage back to back.
	serial := uint64(p.Frames) * uint64(p.Stages) * uint64(p.ComputePerFrame)
	if uint64(res.Cycles) >= serial {
		t.Fatalf("pipeline did not overlap: %d cycles >= serial bound %d", res.Cycles, serial)
	}
}

// TestVerifiedWorkloads runs downsized workloads with the formal-model
// recorder attached on representative backends: every read the simulated
// memory system returns must be a value the PMC model admits, and every
// recorded location's writes must be totally ordered (no data races).
func TestVerifiedWorkloads(t *testing.T) {
	cases := []struct {
		app     func() App
		backend string
	}{
		{func() App { f := DefaultMFifo(); f.Items = 6; return f }, "dsm"},
		{func() App { f := DefaultMFifo(); f.Items = 6; return f }, "swcc"},
		{func() App { s := DefaultStencil(); s.Iters = 2; s.SegWords = 8; return s }, "swcc"},
		{func() App { s := DefaultStencil(); s.Iters = 2; s.SegWords = 8; return s }, "dsm"},
		{func() App { p := DefaultPipeline(); p.Frames = 5; return p }, "nocc"},
		{func() App { p := DefaultPipeline(); p.Frames = 5; return p }, "spm"},
		{func() App {
			r := DefaultReacquire()
			r.Iters, r.Words = 6, 4
			return r
		}, "swcc-lazy"},
	}
	for _, tc := range cases {
		app := tc.app()
		name := app.Name() + "/" + tc.backend
		t.Run(name, func(t *testing.T) {
			_, rec, err := RunVerified(app, smallCfg(4), tc.backend)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Err(); err != nil {
				t.Fatal(err)
			}
			if err := rec.CheckWriteOrder(); err != nil {
				t.Fatal(err)
			}
			if len(rec.Exec.Ops()) < 50 {
				t.Fatalf("suspiciously few recorded operations: %d", len(rec.Exec.Ops()))
			}
		})
	}
}

// BenchmarkVerifiedRun measures the cost of running a workload with the
// formal-model recorder attached (the differential-testing mode).
func BenchmarkVerifiedRun(b *testing.B) {
	cfg := soc.DefaultConfig()
	cfg.Tiles = 3
	for i := 0; i < b.N; i++ {
		_, rec, err := RunVerified(DefaultMsgPass(), cfg, "swcc")
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
