package rt

import (
	"testing"

	"pmc/internal/noc"
	"pmc/internal/soc"
)

// clusterSys builds a system with a genuine multi-cluster topology.
func clusterSys(t *testing.T, tiles, perCluster int) *soc.System {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Tiles = tiles
	cfg.MaxCycles = 50_000_000
	topo, err := noc.ParseTopology("cluster:4xring")
	if err != nil {
		t.Fatal(err)
	}
	topo.Local = perCluster
	cfg.NoC.Topology = topo
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCDSMCrossClusterTransfer: message passing where writer and reader sit
// in different clusters, so the lock transfer must carry the data across
// the backbone into the reader's cluster replica. The recorder verifies
// every read against the formal model.
func TestCDSMCrossClusterTransfer(t *testing.T) {
	sys := clusterSys(t, 8, 4) // 2 clusters of 4
	r := New(sys, CDSM())
	rec := NewRecorder(r)
	x := r.Alloc("X", 64)
	f := r.Alloc("f", 4)
	var got uint32
	r.Spawn(0, "writer", func(c *Ctx) { // cluster 0
		c.EntryX(x)
		c.Write32(x, 0, 42)
		c.Write32(x, 60, 7)
		c.Fence()
		c.ExitX(x)
		c.EntryX(f)
		c.Write32(f, 0, 1)
		c.Flush(f)
		c.ExitX(f)
	})
	r.Spawn(5, "reader", func(c *Ctx) { // cluster 1
		pollUntil(c, f, 1)
		c.Fence()
		c.EntryX(x)
		got = c.Read32(x, 0) + c.Read32(x, 60)
		c.ExitX(x)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 49 {
		t.Fatalf("cross-cluster reader got %d, want 49", got)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	// The transfer must have crossed the backbone.
	if st := sys.Net.Stats(); st.GlobalFlitHops == 0 {
		t.Fatal("cross-cluster transfer produced no backbone traffic")
	}
}

// TestCDSMIntraClusterTransferMovesNoData: when the lock moves between two
// tiles of the same cluster, the shared replica makes any data copy
// unnecessary — no NoC payload traffic at all beyond lock control.
func TestCDSMIntraClusterTransferMovesNoData(t *testing.T) {
	sys := clusterSys(t, 8, 4)
	r := New(sys, CDSM())
	x := r.Alloc("X", 64)
	r.InitObject(x, []uint32{5})
	var got uint32
	written := false
	r.Spawn(0, "a", func(c *Ctx) { // cluster 0
		c.EntryX(x)
		c.Write32(x, 0, 11)
		c.ExitX(x)
		written = true
	})
	r.Spawn(1, "b", func(c *Ctx) { // cluster 0 as well
		for !written {
			c.Compute(10)
		}
		c.EntryX(x)
		got = c.Read32(x, 0)
		c.ExitX(x)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("intra-cluster reader got %d, want 11", got)
	}
	if st := sys.Net.Stats(); st.GlobalFlitHops != 0 {
		t.Fatalf("intra-cluster handoff crossed the backbone (%d global flit-hops)", st.GlobalFlitHops)
	}
}

// TestCSPMStagesInClusterScratch: a cspm scope stages into the cluster
// scratch window, is serviced from there, and writes back on exit.
func TestCSPMStagesInClusterScratch(t *testing.T) {
	sys := clusterSys(t, 8, 4)
	r := New(sys, CSPM())
	x := r.Alloc("X", 128)
	r.Spawn(6, "w", func(c *Ctx) { // cluster 1
		c.EntryX(x)
		c.Write32(x, 0, 0xbeef)
		c.ExitX(x)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if v := r.ReadObjectWord(x, 0); v != 0xbeef {
		t.Fatalf("canonical copy = %#x, want 0xbeef", v)
	}
	// The staging traffic must have charged the cluster scratch ports of
	// cluster 1, not any tile-local memory.
	if sys.Clusters[1].Scratch.CoreWrites == 0 {
		t.Fatal("cspm scope did not touch the cluster scratch")
	}
}

// TestCSPMArenaSharedAcrossTiles: two member tiles staging simultaneously
// draw from the same per-cluster arena, and both copies round-trip.
func TestCSPMArenaSharedAcrossTiles(t *testing.T) {
	sys := clusterSys(t, 8, 4)
	r := New(sys, CSPM())
	a := r.Alloc("A", 64)
	b := r.Alloc("B", 64)
	var gotA, gotB uint32
	r.Spawn(0, "wa", func(c *Ctx) {
		c.EntryX(a)
		c.Write32(a, 0, 1)
		gotA = c.Read32(a, 0)
		c.ExitX(a)
	})
	r.Spawn(1, "wb", func(c *Ctx) {
		c.EntryX(b)
		c.Write32(b, 0, 2)
		gotB = c.Read32(b, 0)
		c.ExitX(b)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if gotA != 1 || gotB != 2 {
		t.Fatalf("staged reads = %d/%d, want 1/2", gotA, gotB)
	}
	if r.ReadObjectWord(a, 0) != 1 || r.ReadObjectWord(b, 0) != 2 {
		t.Fatal("canonical copies not written back")
	}
	// Both scopes are closed: the arena must be fully coalesced again.
	arena := r.arena(soc.LevelCluster, 0)
	if len(arena.free) != 1 || arena.free[0].size != sys.MemBytes(soc.LevelCluster) {
		t.Fatalf("cluster arena not fully released: %+v", arena.free)
	}
}
