package soc

import (
	"pmc/internal/mem"
	"pmc/internal/sim"
)

// Level is a memory level a protocol can keep its copies in: each tile's
// local memory, or each cluster's scratch. A level partitions the tiles
// into units — a tile is its own unit at LevelLocal, its cluster is its
// unit at LevelCluster — and each unit owns one memory, one address
// window and one gateway tile that NoC traffic for the unit is addressed
// to. The cluster level sits one crossbar traversal further from the core.
type Level uint8

const (
	// LevelLocal is the tile-local memory (dual-port, single-cycle).
	LevelLocal Level = iota
	// LevelCluster is the cluster scratch, shared by the member tiles.
	LevelCluster
)

// NumLevels is the number of memory levels.
const NumLevels = 2

func (l Level) String() string {
	if l == LevelCluster {
		return "cluster scratch"
	}
	return "tile-local memory"
}

// Addr returns the global address of offset off inside unit u's memory.
func (l Level) Addr(u int, off mem.Addr) mem.Addr {
	if l == LevelCluster {
		return ClusterAddr(u, off)
	}
	return LocalAddr(u, off)
}

// Offset inverts Addr, returning the owning unit and the offset.
func (l Level) Offset(a mem.Addr) (unit int, off mem.Addr) {
	if l == LevelCluster {
		return ClusterOffset(a)
	}
	return LocalOffset(a)
}

// Latency is the cycles an access to the level costs beyond the
// instruction's execute cycle: zero for the tile-local memory, the
// crossbar traversal for the cluster scratch.
func (l Level) Latency() sim.Time {
	if l == LevelCluster {
		return clusterMemLat
	}
	return 0
}

// clusterMemLat is the extra crossbar traversal latency of a
// cluster-scratch access over a tile-local one. The scratch is multi-bank
// and the member cores reach it through the cluster crossbar, so an access
// costs the execute cycle plus this fixed arbitration/traversal cycle;
// bank conflicts are not modelled.
const clusterMemLat = sim.Time(1)

// Units returns how many units the level has: one per tile or one per
// cluster.
func (s *System) Units(l Level) int {
	if l == LevelCluster {
		return len(s.Clusters)
	}
	return len(s.Locals)
}

// Mem returns unit u's memory at level l.
func (s *System) Mem(l Level, u int) *mem.Local {
	if l == LevelCluster {
		return s.Clusters[u].Scratch
	}
	return s.Locals[u]
}

// Gateway returns the tile that NoC writes into unit u's memory are
// addressed to: the tile itself, or the cluster's first tile (a write
// lands in the memory its address names; the gateway only fixes the
// route).
func (s *System) Gateway(l Level, u int) int {
	if l == LevelCluster {
		return s.Clusters[u].Tiles[0].ID
	}
	return u
}

// MemBytes returns the capacity of one unit's memory at level l.
func (s *System) MemBytes(l Level) int {
	if l == LevelCluster {
		return clusterBytes
	}
	return LocalBytes
}

// SeedLevel writes image at offset off of every unit memory at level l,
// outside simulated time, exactly as one WriteBlock per memory would. It
// writes the level's seed, which each memory reads where it has never
// written, plus the chunks in range that memories already own, so a
// replica set up on 1024 tiles costs one copy until tiles write to it.
func (s *System) SeedLevel(l Level, off mem.Addr, image []byte) {
	s.seeds[l].WriteBlock(off, image)
}

// Unit returns the unit this tile belongs to at level l.
func (t *Tile) Unit(l Level) int {
	if l == LevelCluster {
		return t.Cluster.ID
	}
	return t.ID
}

// Mem returns the memory this tile reaches at level l.
func (t *Tile) Mem(l Level) *mem.Local {
	if l == LevelCluster {
		return t.Cluster.Scratch
	}
	return t.Local
}
