package noc

import (
	"strings"
	"testing"

	"pmc/internal/mem"
	"pmc/internal/sim"
)

func buildTopo(tiles int, topo Topology) (*sim.Kernel, *Network) {
	k := sim.New()
	locals := make([]*mem.Local, tiles)
	for i := range locals {
		locals[i] = &mem.Local{RAM: mem.NewRAM(0, 4096), Tile: i}
	}
	n, err := New(k, Config{Tiles: tiles, Topology: topo}, locals)
	if err != nil {
		panic(err)
	}
	return k, n
}

func TestParseTopologyCluster(t *testing.T) {
	good := []struct {
		s    string
		want Topology
	}{
		{"cluster:16xring", ClusterTopo(16, KindRing)},
		{"cluster:4xmesh", ClusterTopo(4, KindMesh)},
		{"cluster:1xring", ClusterTopo(1, KindRing)},
	}
	for _, tc := range good {
		got, err := ParseTopology(tc.s)
		if err != nil || got != tc.want {
			t.Errorf("ParseTopology(%q) = %+v, %v; want %+v", tc.s, got, err, tc.want)
		}
		if got.String() != tc.s {
			t.Errorf("%q round-trips to %q", tc.s, got.String())
		}
	}
	bad := []struct{ s, hint string }{
		{"cluster:", "cluster:<local>x<global>"},
		{"cluster:16", "cluster:<local>x<global>"},
		{"cluster:xmesh", "positive integer"},
		{"cluster:-4xmesh", "positive integer"},
		{"cluster:0xring", "positive integer"},
		{"cluster:axring", "positive integer"},
		{"cluster:4xtorus", "must be ring or mesh"},
		{"cluster:4x", "must be ring or mesh"},
		{"clusters:4xring", "valid: ring, mesh, cluster:<local>x<global>"},
	}
	for _, tc := range bad {
		_, err := ParseTopology(tc.s)
		if err == nil {
			t.Errorf("ParseTopology(%q) accepted", tc.s)
			continue
		}
		if !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("ParseTopology(%q) error %q lacks %q", tc.s, err, tc.hint)
		}
	}
}

func TestClusterValidate(t *testing.T) {
	base := Config{Tiles: 32}
	cases := []struct {
		mutate func(*Config)
		hint   string
	}{
		{func(c *Config) { c.Topology = ClusterTopo(5, KindRing) }, "do not divide into clusters of 5"},
		{func(c *Config) { c.Topology = Topology{Kind: KindCluster} }, "positive tiles-per-cluster"},
		{func(c *Config) { c.Topology = Topology{Kind: KindCluster, Local: 8, Global: KindCluster} }, "backbone must be ring or mesh"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("config %+v accepted", cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("error %q lacks %q", err, tc.hint)
		}
	}
	ok := base
	ok.Topology = ClusterTopo(8, KindMesh)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid cluster config rejected: %v", err)
	}
}

// TestClusterHops pins the hierarchical hop model: 1 crossbar hop inside a
// cluster; 1 up + backbone + 1 down between clusters.
func TestClusterHops(t *testing.T) {
	_, n := buildTopo(64, ClusterTopo(16, KindRing)) // 4 clusters on a ring
	cases := []struct{ a, b, want int }{
		{0, 15, 1}, // same cluster: crossbar
		{3, 4, 1},  // same cluster, adjacent IDs
		{0, 16, 3}, // neighbour cluster: 1 + 1 + 1
		{0, 32, 4}, // two clusters away: 1 + 2 + 1
		{0, 48, 3}, // ring wraps: cluster 3 is one hop back
		{63, 0, 3}, // wrap the other way
	}
	for _, c := range cases {
		if got := hops(n, c.a, c.b); got != c.want {
			t.Errorf("cluster hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Mesh backbone: 16 clusters on a 4x4 mesh.
	_, nm := buildTopo(64, ClusterTopo(4, KindMesh))
	if got := hops(nm, 0, 63); got != 1+6+1 { // cluster 0 -> 15: opposite mesh corners
		t.Errorf("mesh-backbone corner hops = %d, want 8", got)
	}
}

// TestClusterFlitHopSplit: intra-cluster traffic counts as local, backbone
// hops as global, and the total stays the sum.
func TestClusterFlitHopSplit(t *testing.T) {
	k, n := buildTopo(32, ClusterTopo(8, KindRing))
	k.Spawn("src", func(p *sim.Proc) {
		n.PostWriteDelayed(0, 1, 0x10, word(1), 0) // same cluster: 1 local hop
		n.PostWriteDelayed(0, 8, 0x10, word(2), 0) // next cluster: 2 local + 1 global
		p.Wait(100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.LocalFlitHops != 3 || st.GlobalFlitHops != 1 {
		t.Errorf("split = local %d / global %d, want 3 / 1", st.LocalFlitHops, st.GlobalFlitHops)
	}
	if st.FlitHops != st.LocalFlitHops+st.GlobalFlitHops {
		t.Errorf("total %d != local %d + global %d", st.FlitHops, st.LocalFlitHops, st.GlobalFlitHops)
	}
}

// TestClusterLatency: backbone hops cost HopLat, like local hops.
func TestClusterLatency(t *testing.T) {
	_, n := buildTopo(32, ClusterTopo(8, KindRing))
	// 0 -> 8: inj 2 + (2 local + 1 global) hops x 2 = 8.
	if got := n.ControlLatency(0, 8, 4); got != 8 {
		t.Errorf("cross-cluster latency = %d, want 8", got)
	}
	// 0 -> 16: inj 2 + (2 local + 2 global) hops x 2 = 10.
	if got := n.ControlLatency(0, 16, 4); got != 10 {
		t.Errorf("two-cluster latency = %d, want 10", got)
	}
	// 0 -> 1: inj 2 + 1 local hop x 2 = 4.
	if got := n.ControlLatency(0, 1, 4); got != 4 {
		t.Errorf("intra-cluster latency = %d, want 4", got)
	}
}

// TestMemResolver: a delivery whose address resolves to another memory
// (the cluster scratch case) must land there, not in the tile-local
// memory.
func TestMemResolver(t *testing.T) {
	k, n := buildTopo(8, ClusterTopo(4, KindRing))
	scratch := &mem.Local{RAM: mem.NewRAM(0x4000_0000, 4096), Tile: -1}
	n.SetMemResolver(func(dst int, addr mem.Addr) *mem.Local {
		if addr >= 0x4000_0000 && addr < 0x8000_0000 {
			return scratch
		}
		return n.locals[dst]
	})
	k.Spawn("src", func(p *sim.Proc) {
		n.PostWriteDelayed(0, 5, 0x4000_0010, word(99), 0)
		n.PostWriteDelayed(0, 5, 0x20, word(7), 0)
		p.Wait(100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v := scratch.Read32(0x4000_0010); v != 99 {
		t.Errorf("cluster-scratch delivery = %d, want 99", v)
	}
	if v := n.locals[5].Read32(0x20); v != 7 {
		t.Errorf("tile-local delivery = %d, want 7", v)
	}
}
