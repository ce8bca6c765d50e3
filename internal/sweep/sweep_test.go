package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"pmc/internal/rt"

	"pmc/internal/noc"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/workloads"
)

// smallBase is a compact system template for quick grids.
func smallBase() *soc.Config {
	cfg := soc.DefaultConfig()
	return &cfg
}

// smallSpec is the canonical test grid: the three SPLASH substitutes at CI
// size across every backend of the acceptance matrix, two tile counts, both
// topologies.
func smallSpec(workers int) Spec {
	return Spec{
		Apps:     []string{"radiosity", "raytrace", "volrend"},
		Backends: []string{"nocc", "swcc", "dsm", "spm"},
		Tiles:    []int{2, 4},
		Topos:    []noc.Topology{noc.TopoRing, noc.TopoMesh},
		Base:     smallBase(),
		Make: func(c Cell) (workloads.App, error) {
			app, _ := workloads.Scaled(c.App, true)
			return app, nil
		},
		Workers: workers,
	}
}

// TestSweepDeterminism is the simulator analogue of PR 1's 4-mode
// differential test: the same grid with 1 worker and N workers must produce
// byte-identical JSON and CSV result tables — cycles, checksums and NoC
// counters included.
func TestSweepDeterminism(t *testing.T) {
	seq, err := Run(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(smallSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	var js, jp, cs, cp bytes.Buffer
	if err := seq.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&jp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Bytes(), jp.Bytes()) {
		t.Fatalf("1-worker and 8-worker JSON tables differ:\n--- seq ---\n%s\n--- par ---\n%s",
			js.String(), jp.String())
	}
	if err := seq.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cs.Bytes(), cp.Bytes()) {
		t.Fatal("1-worker and 8-worker CSV tables differ")
	}
	// Sanity on the content itself: every cell ran to completion.
	for _, r := range seq.Rows {
		if r.Cycles == 0 || r.Err != "" {
			t.Fatalf("row %s/%s/%d/%s incomplete: cycles=%d err=%q",
				r.App, r.Backend, r.Tiles, r.Topology, r.Cycles, r.Err)
		}
	}
}

// TestSweepChecksumPortability: at a fixed (app, tiles), every backend and
// topology must compute the same checksum — the PMC portability claim, now
// checked across the whole grid. The check must also fail: one corrupted
// checksum is reported by name.
func TestSweepChecksumPortability(t *testing.T) {
	table, err := Run(smallSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.CheckPortable(); err != nil {
		t.Fatal(err)
	}
	bad := table.Find("raytrace", "dsm", 4, noc.TopoMesh)
	bad.Checksum ^= 1
	err = table.CheckPortable()
	if err == nil {
		t.Fatal("corrupted checksum not reported")
	}
	if !strings.Contains(err.Error(), "raytrace/dsm/4t/mesh") {
		t.Fatalf("error does not name the corrupted cell: %v", err)
	}
}

func TestSweepGridOrder(t *testing.T) {
	spec := smallSpec(1)
	cells := spec.Cells()
	if len(cells) != 3*4*2*2 {
		t.Fatalf("grid has %d cells, want 48", len(cells))
	}
	// Apps outermost, topologies innermost.
	if cells[0].App != "radiosity" || cells[0].Backend != "nocc" || cells[0].Tiles != 2 || cells[0].Topo != noc.TopoRing {
		t.Fatalf("first cell %+v", cells[0])
	}
	if cells[1].Topo != noc.TopoMesh {
		t.Fatalf("second cell should flip topology, got %+v", cells[1])
	}
	if cells[len(cells)-1].App != "volrend" || cells[len(cells)-1].Backend != "spm" {
		t.Fatalf("last cell %+v", cells[len(cells)-1])
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
}

func TestSweepDefaults(t *testing.T) {
	spec := Spec{Apps: []string{"msgpass"}, Backends: []string{"nocc"}, Tiles: []int{2}}
	table, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(table.Rows))
	}
	if table.Rows[0].Topology != "ring" {
		t.Fatalf("default topology %q, want ring", table.Rows[0].Topology)
	}
	// Empty Backends axis expands to every backend.
	all := Spec{Apps: []string{"msgpass"}, Tiles: []int{4}}
	if n := len(all.Cells()); n != len(rt.Backends) {
		t.Fatalf("default backend axis has %d cells, want %d", n, len(rt.Backends))
	}
}

func TestSweepValidation(t *testing.T) {
	cases := []Spec{
		{},                              // no apps
		{Apps: []string{"no-such-app"}}, // unknown app
		{Apps: []string{"msgpass"}, Backends: []string{"hwcc"}},                                               // unknown backend
		{Apps: []string{"msgpass"}, Tiles: []int{0}},                                                          // zero tiles
		{Apps: []string{"msgpass"}, Tiles: []int{-4}},                                                         // negative tiles
		{Apps: []string{"msgpass"}, Tiles: []int{4096}},                                                       // past the address map
		{Apps: []string{"msgpass"}, Tiles: []int{6}, Topos: []noc.Topology{noc.ClusterTopo(4, noc.KindRing)}}, // indivisible clusters
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
		if _, err := Run(spec); err == nil {
			t.Errorf("case %d: bad spec run", i)
		}
	}
}

// TestSweepCellFailureContained: a failing cell is recorded in its row and
// reported as the run error, while the other cells still complete.
func TestSweepCellFailureContained(t *testing.T) {
	spec := Spec{
		Apps:     []string{"msgpass"},
		Backends: []string{"nocc", "swcc"},
		Tiles:    []int{4},
		Make: func(c Cell) (workloads.App, error) {
			if c.Backend == "nocc" {
				return nil, errors.New("boom")
			}
			app, _ := workloads.ByName(c.App)
			return app, nil
		},
	}
	table, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want cell failure", err)
	}
	if table == nil || len(table.Rows) != 2 {
		t.Fatal("table missing despite partial failure")
	}
	if table.Rows[0].Err == "" || table.Rows[1].Err != "" {
		t.Fatalf("rows = %+v", table.Rows)
	}
	if table.Rows[1].Cycles == 0 {
		t.Fatal("healthy cell did not complete")
	}
}

// TestSweepPanicContained: workload Setup guards panic on impossible cell
// shapes (mfifo needs readers+writers tiles); the engine must convert that
// into a cell error, not a process crash.
func TestSweepPanicContained(t *testing.T) {
	spec := Spec{
		Apps:     []string{"mfifo"},
		Backends: []string{"nocc"},
		Tiles:    []int{2}, // < 2 readers + 2 writers
	}
	table, err := Run(spec)
	if err == nil {
		t.Fatal("impossible cell did not error")
	}
	if len(table.Rows) != 1 || !strings.Contains(table.Rows[0].Err, "panic") {
		t.Fatalf("rows = %+v, want contained panic", table.Rows)
	}
}

// chainPanicApp is a workload whose workers each run a step chain that
// panics in its second step, which runs as a kernel event.
type chainPanicApp struct{}

func (chainPanicApp) Name() string                { return "chain-panic" }
func (chainPanicApp) Setup(*rt.Runtime, int)      {}
func (chainPanicApp) Checksum(*rt.Runtime) uint32 { return 0 }
func (chainPanicApp) Worker(c *rt.Ctx, _, _ int) {
	n := 0
	c.P.Steps(func() (sim.Time, bool) {
		if n++; n == 2 {
			panic("chain step boom")
		}
		c.T.Sys.K.ScheduleAt(c.P.Now()+1, func() {}) // the wait must yield
		return c.P.Now() + 1, true
	})
}

// TestSweepChainPanicContained: a step chain's panic, raised on the
// kernel's stack rather than in a process, is a cell error too.
func TestSweepChainPanicContained(t *testing.T) {
	spec := Spec{
		Apps:     []string{"chain-panic"},
		Backends: []string{"nocc"},
		Tiles:    []int{2},
		Make:     func(Cell) (workloads.App, error) { return chainPanicApp{}, nil },
	}
	table, err := Run(spec)
	if err == nil {
		t.Fatal("panicking chain did not error")
	}
	if len(table.Rows) != 1 || !strings.Contains(table.Rows[0].Err, "panic: chain step boom") {
		t.Fatalf("rows = %+v, want the contained chain panic", table.Rows)
	}
}

func TestSweepJSONShape(t *testing.T) {
	spec := Spec{Apps: []string{"msgpass"}, Backends: []string{"dsm"}, Tiles: []int{4}}
	table, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"app": "msgpass"`, `"backend": "dsm"`, `"tiles": 4`, `"cycles"`, `"flit_hops"`, `"checksum"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"err"`) {
		t.Error("err field should be omitted on success")
	}
	buf.Reset()
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "app,backend,tiles,topology,cycles") {
		t.Fatalf("CSV shape wrong:\n%s", buf.String())
	}
}

func TestSweepFind(t *testing.T) {
	table, err := Run(Spec{Apps: []string{"msgpass"}, Backends: []string{"nocc", "swcc"}, Tiles: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	r := table.Find("msgpass", "swcc", 4, noc.TopoRing)
	if r == nil || r.Backend != "swcc" || r.Tiles != 4 {
		t.Fatalf("Find returned %+v", r)
	}
	if table.Find("msgpass", "swcc", 64, noc.TopoRing) != nil {
		t.Fatal("Find fabricated a row")
	}
}

// TestSweepHopSplitEmitted is the regression test for the dropped
// hierarchical hop columns: PR 6's local/global flit-hop split reached
// workloads.Result but sweep rows silently dropped it. Cluster cells must
// emit a non-trivial split that sums to flit_hops, and both serialized
// forms must carry the columns.
func TestSweepHopSplitEmitted(t *testing.T) {
	topo, err := noc.ParseTopology("cluster:4xring")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Apps:     []string{"radiosity"},
		Backends: []string{"cdsm"},
		Tiles:    []int{16},
		Topos:    []noc.Topology{topo},
		Make: func(c Cell) (workloads.App, error) {
			app, _ := workloads.Scaled(c.App, true)
			return app, nil
		},
	}
	table, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := table.Rows[0]
	if r.LocalFlitHops == 0 || r.GlobalFlitHops == 0 {
		t.Fatalf("cluster cell hop split not populated: local=%d global=%d", r.LocalFlitHops, r.GlobalFlitHops)
	}
	if r.LocalFlitHops+r.GlobalFlitHops != r.FlitHops {
		t.Fatalf("hop split %d+%d != flit_hops %d", r.LocalFlitHops, r.GlobalFlitHops, r.FlitHops)
	}
	var js, cs bytes.Buffer
	if err := table.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"local_flit_hops"`, `"global_flit_hops"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, js.String())
		}
	}
	if err := table.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(cs.String(), "\n", 2)[0]
	for _, want := range []string{"local_flit_hops", "global_flit_hops"} {
		if !strings.Contains(header, want) {
			t.Errorf("CSV header missing %s: %s", want, header)
		}
	}
}

// serviceSpec is a compact service-workload grid at CI size.
func serviceSpec(workers int) Spec {
	return Spec{
		Apps:     []string{"server", "kvstore", "stream"},
		Backends: []string{"nocc", "dsm", "adaptive"},
		Tiles:    []int{8},
		Base:     smallBase(),
		Make: func(c Cell) (workloads.App, error) {
			app, _ := workloads.Scaled(c.App, true)
			return app, nil
		},
		Workers: workers,
	}
}

// TestSweepServiceColumns: service cells populate the request/latency
// columns (kernel cells omit them), the quantiles are ordered, and the
// whole service grid — latency columns included — stays byte-identical
// across worker counts.
func TestSweepServiceColumns(t *testing.T) {
	seq, err := Run(serviceSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seq.Rows {
		if r.Requests == 0 {
			t.Fatalf("%s/%s: no requests recorded", r.App, r.Backend)
		}
		if r.P50Latency == 0 || r.P50Latency > r.P99Latency {
			t.Fatalf("%s/%s: quantiles out of order: p50=%d p99=%d", r.App, r.Backend, r.P50Latency, r.P99Latency)
		}
		if r.Result.Service == nil || r.Result.Service.Completed != r.Result.Service.Offered {
			t.Fatalf("%s/%s: service incomplete: %+v", r.App, r.Backend, r.Result.Service)
		}
	}
	par, err := Run(serviceSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	var js, jp bytes.Buffer
	if err := seq.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&jp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Bytes(), jp.Bytes()) {
		t.Fatal("service grid not byte-identical across worker counts")
	}
	if !strings.Contains(js.String(), `"p50_latency"`) || !strings.Contains(js.String(), `"p99_latency"`) {
		t.Fatalf("JSON missing latency columns:\n%s", js.String())
	}
	// Kernel rows must omit the service columns.
	kernel, err := Run(Spec{Apps: []string{"msgpass"}, Backends: []string{"dsm"}, Tiles: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	var kb bytes.Buffer
	if err := kernel.WriteJSON(&kb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(kb.String(), `"p50_latency"`) {
		t.Error("kernel row should omit service columns")
	}
}

func TestEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var sum int64
		if err := Each(100, workers, func(i int) error {
			atomic.AddInt64(&sum, int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum != 4950 {
			t.Fatalf("workers=%d: sum %d, want 4950", workers, sum)
		}
	}
	// Lowest-index error wins regardless of completion order.
	err := Each(10, 4, func(i int) error {
		if i == 7 || i == 3 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 3" {
		t.Fatalf("err = %v, want fail 3", err)
	}
	if err := Each(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("Each(0) must be a no-op")
	}
}

// TestSweepSDRAMFloor: a grid with no Base runs cells beyond the default
// memory map's 48 tiles (workloads raise SDRAM to rt.MinSDRAMBytes), and
// the raise computes what a Base sized by hand does. Full-size radiosity
// touches the private heaps of its highest tiles, which lie past 32 MiB.
func TestSweepSDRAMFloor(t *testing.T) {
	spec := Spec{
		Apps:     []string{"radiosity"},
		Backends: []string{"cdsm"},
		Tiles:    []int{64},
		Topos:    []noc.Topology{noc.ClusterTopo(8, noc.KindRing)},
	}
	got, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := soc.DefaultConfig()
	base.SDRAMBytes = rt.MinSDRAMBytes(1024)
	spec.Base = &base
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var g, w bytes.Buffer
	if err := got.WriteJSON(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Errorf("64-tile cell on the raised default map differs from a hand-sized one:\n%s\nvs\n%s", g.Bytes(), w.Bytes())
	}
}
