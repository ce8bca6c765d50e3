package soc

import (
	"strings"
	"testing"

	"pmc/internal/noc"
	"pmc/internal/sim"
)

// TestFlatIsOneCluster: the flat configuration is the exact 1-cluster
// special case — one cluster holding every tile.
func TestFlatIsOneCluster(t *testing.T) {
	s, err := New(testConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 1 {
		t.Fatalf("flat system has %d clusters, want 1", len(s.Clusters))
	}
	if got := len(s.Clusters[0].Tiles); got != 32 {
		t.Fatalf("flat cluster holds %d tiles, want 32", got)
	}
	for i, tl := range s.Tiles {
		if tl.Cluster != s.Clusters[0] {
			t.Fatalf("tile %d not in the single cluster", i)
		}
	}
}

// TestClusterWiring: a cluster NoC topology sets the cluster count, and
// the clusters partition the tiles in order.
func TestClusterWiring(t *testing.T) {
	cfg := testConfig(32)
	cfg.NoC.Topology, _ = noc.ParseTopology("cluster:8xring")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 4 || len(s.Clusters[0].Tiles) != 8 {
		t.Fatalf("cluster:8xring over 32 tiles gave %d clusters of %d tiles, want 4 of 8", len(s.Clusters), len(s.Clusters[0].Tiles))
	}
	for i, tl := range s.Tiles {
		if want := s.Clusters[i/8]; tl.Cluster != want {
			t.Fatalf("tile %d in cluster %d, want %d", i, tl.Cluster.ID, want.ID)
		}
	}
}

// TestClusterAddrMap: ClusterAddr/ClusterOffset round-trip and the scratch
// windows sit between SDRAM and the tile-local windows.
func TestClusterAddrMap(t *testing.T) {
	for _, cl := range []int{0, 3, 1023} {
		a := ClusterAddr(cl, 0x80)
		if a < ClusterBase || a >= LocalBase {
			t.Fatalf("ClusterAddr(%d) = %#x outside the cluster window", cl, a)
		}
		c, off := ClusterOffset(a)
		if c != cl || off != 0x80 {
			t.Fatalf("ClusterOffset(ClusterAddr(%d, 0x80)) = (%d, %#x)", cl, c, off)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ClusterOffset accepted a local address")
		}
	}()
	ClusterOffset(LocalBase)
}

// TestClusterValidate: the distinct configuration error messages, and the
// largest configurations the address map holds (an empty hint: accepted).
func TestClusterValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		hint   string
	}{
		{func(c *Config) { c.Tiles = 2048 }, ""},
		{func(c *Config) { c.Tiles = 2049 }, "2049 tiles exceeds the address map's maximum 2048"},
		{func(c *Config) { c.Tiles = 2048; c.NoC.Topology = noc.ClusterTopo(2, noc.KindRing) }, ""},
		{func(c *Config) { c.Tiles = 2048; c.NoC.Topology = noc.ClusterTopo(1, noc.KindRing) },
			"2048 clusters exceeds the address map's maximum 1024"},
		{func(c *Config) {
			c.NoC.Topology, _ = noc.ParseTopology("cluster:5xring")
		}, "do not divide into clusters of 5"},
	}
	for _, tc := range cases {
		cfg := testConfig(32)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.hint == "" {
			if err != nil {
				t.Errorf("config rejected: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("config accepted, want error containing %q", tc.hint)
			continue
		}
		if !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("error %q lacks %q", err, tc.hint)
		}
	}
}

// TestClusterScratchOverNoC: a posted write addressed at another cluster's
// scratch window lands in that scratch, not in any tile-local memory.
func TestClusterScratchOverNoC(t *testing.T) {
	cfg := testConfig(8)
	cfg.NoC.Topology, _ = noc.ParseTopology("cluster:4xring")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := ClusterAddr(1, 0x20)
	s.K.Spawn("t0", func(p *sim.Proc) {
		s.Net.PostWriteDelayed(0, 4, dst, []byte{0xcd, 0xab, 0, 0}, 0)
		p.Wait(200)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v := s.Clusters[1].Scratch.Read32(dst); v != 0xabcd {
		t.Fatalf("cluster scratch over NoC = %#x, want 0xabcd", v)
	}
	for _, l := range s.Locals {
		if l.NoCWrites != 0 {
			t.Fatalf("tile-local memory %d saw the cluster-window write", l.Tile)
		}
	}
}
