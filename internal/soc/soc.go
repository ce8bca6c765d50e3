// Package soc assembles the simulated many-core system of the paper's
// Fig. 7: n tiles, each with an in-order MicroBlaze-like core, a private
// I-cache and non-coherent write-back D-cache, and a dual-port local
// memory; a shared SDRAM behind a banked, pipelined controller; a
// write-only NoC between the tiles; and per-tile lock units
// (internal/lock).
//
// The tile exposes exactly the micro-architectural event counters the
// paper's platform measures (Section V-B: "It contains support to measure
// micro-architectural events, like counting instructions and cache
// misses"), broken down into the stall categories of Fig. 8: instruction
// cache stalls, write stalls, shared-read stalls, private-read stalls, and
// busy (utilization) cycles.
package soc

import (
	"fmt"

	"pmc/internal/cache"
	"pmc/internal/lock"
	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/sim"
)

// Memory map constants. SDRAM occupies low addresses; cluster scratch
// memories are spaced at ClusterStride starting at ClusterBase; tile-local
// memories are spaced at LocalStride starting at LocalBase.
const (
	SDRAMBase     = mem.Addr(0x0000_0000)
	ClusterBase   = mem.Addr(0x4000_0000)
	ClusterStride = mem.Addr(0x0010_0000)
	LocalBase     = mem.Addr(0x8000_0000)
	LocalStride   = mem.Addr(0x0010_0000)
)

// MaxClusters keeps the cluster scratch windows below LocalBase: a
// cluster topology with more clusters than this is rejected.
const MaxClusters = int((LocalBase - ClusterBase) / ClusterStride)

// clusterBytes is each cluster scratch memory's size. The blank constant
// fails to compile (unsigned overflow) if it outgrows ClusterStride.
const clusterBytes = 256 * 1024

const _ = ClusterStride - clusterBytes

// centralLockWords is the capacity of the centralized lock table.
const centralLockWords = 4096

// The tile geometry of the paper's platform (Fig. 7). Both caches have
// mem.LineSize-byte lines; only the D-cache capacity is a Config value.
// The blank constant fails to compile if LocalBytes outgrows LocalStride.
const (
	ICacheBytes = 4096      // I-cache capacity
	CacheWays   = 2         // associativity of both caches
	LocalBytes  = 64 * 1024 // dual-port local memory per tile
)

const _ = LocalStride - LocalBytes

// icache is the I-cache geometry of every tile.
var icache = cache.Config{Size: ICacheBytes, Ways: CacheWays, LineSize: mem.LineSize}

// maxTiles keeps the tile-local windows inside the 32-bit address space:
// past it, LocalAddr wraps onto SDRAM.
const maxTiles = int((1<<32 - uint64(LocalBase)) / uint64(LocalStride))

// LockKind selects the lock implementation.
type LockKind int

const (
	// LockDistributed is the asymmetric distributed lock of ref [15].
	LockDistributed LockKind = iota
	// LockCentralized is the TAS-over-SDRAM ablation baseline.
	LockCentralized
)

func (lk LockKind) String() string {
	if lk == LockCentralized {
		return "centralized"
	}
	return "distributed"
}

// Config describes a system: its size and shape, the D-cache capacity
// and the lock kind. The rest of the platform, its timing and the other
// geometry, is constant (see above and the mem and noc packages). The
// zero value is not useful; start from DefaultConfig.
type Config struct {
	Tiles int
	// DCacheBytes is the D-cache capacity: a power-of-two multiple of
	// CacheWays lines.
	DCacheBytes int
	SDRAMBytes  int
	NoC         noc.Config // Tiles field is overwritten from Config.Tiles
	Locks       LockKind
	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles sim.Time
}

// dcache returns the D-cache geometry.
func (c Config) dcache() cache.Config {
	return cache.Config{Size: c.DCacheBytes, Ways: CacheWays, LineSize: mem.LineSize}
}

// clusters returns the cluster count of a validated configuration: a
// cluster NoC topology groups the tiles into Tiles/Local clusters, each
// with its own scratch memory; any other topology is the flat
// single-cluster system, the exact configuration of the paper.
func (c Config) clusters() int {
	if t := c.NoC.Topology; t.Kind == noc.KindCluster {
		return c.Tiles / t.Local
	}
	return 1
}

// DefaultConfig is the 32-tile system used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Tiles:       32,
		DCacheBytes: 8192,
		SDRAMBytes:  32 << 20,
		NoC:         noc.Config{Tiles: 32},
		Locks:       LockDistributed,
		MaxCycles:   2_000_000_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Tiles <= 0 {
		return fmt.Errorf("soc: %d tiles", c.Tiles)
	}
	if c.Tiles > maxTiles {
		return fmt.Errorf("soc: %d tiles exceeds the address map's maximum %d", c.Tiles, maxTiles)
	}
	if err := c.dcache().Valid(); err != nil {
		return err
	}
	// NoC shape errors (cluster divisibility) come first: the cluster
	// count below is only defined for a valid topology.
	nocCfg := c.NoC
	nocCfg.Tiles = c.Tiles
	if err := nocCfg.Validate(); err != nil {
		return err
	}
	cl := c.clusters()
	if cl > MaxClusters {
		return fmt.Errorf("soc: %d clusters exceeds the address map's maximum %d", cl, MaxClusters)
	}
	return nil
}

// Cluster is one group of tiles sharing a scratch memory: the level
// between the SoC and the tiles. The flat system is exactly one cluster.
type Cluster struct {
	ID  int
	Sys *System
	// Scratch is the cluster-shared scratch memory (crossbar-attached,
	// addressable at ClusterAddr(ID, off) from every member tile and
	// over the NoC).
	Scratch *mem.Local
	// Tiles are the member tiles, in global tile order.
	Tiles []*Tile
}

// System is an assembled simulated SoC.
type System struct {
	K      *sim.Kernel
	Cfg    Config
	SDRAM  *mem.SDRAM
	Locals []*mem.Local
	Net    *noc.Network
	Tiles  []*Tile
	// Clusters is the cluster level; flat configurations have exactly
	// one entry holding every tile.
	Clusters []*Cluster

	Locks lock.Locker
	// DLock is non-nil when Locks is the distributed implementation;
	// the runtime uses it to install transfer hooks.
	DLock *lock.Distributed
	// CLock is non-nil when Locks is the centralized implementation.
	CLock *lock.Centralized

	// centralLockBase is where the centralized lock table lives.
	centralLockBase mem.Addr

	// seeds holds one image per memory level that every unit memory at
	// the level reads where it has never written (see SeedLevel).
	seeds [NumLevels]*mem.Seed
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.New()
	k.MaxTime = cfg.MaxCycles
	s := &System{K: k, Cfg: cfg}
	s.SDRAM = mem.NewSDRAM(SDRAMBase, cfg.SDRAMBytes)
	s.seeds[LevelLocal] = mem.NewSeed(LocalBytes)
	s.seeds[LevelCluster] = mem.NewSeed(clusterBytes)
	s.Locals = make([]*mem.Local, cfg.Tiles)
	for i := range s.Locals {
		s.Locals[i] = &mem.Local{RAM: s.seeds[LevelLocal].NewRAM(LocalAddr(i, 0)), Tile: i}
	}
	clusters := cfg.clusters()
	tilesPer := cfg.Tiles / clusters
	s.Clusters = make([]*Cluster, clusters)
	for i := range s.Clusters {
		s.Clusters[i] = &Cluster{
			ID:      i,
			Sys:     s,
			Scratch: &mem.Local{RAM: s.seeds[LevelCluster].NewRAM(ClusterAddr(i, 0)), Tile: i * tilesPer},
		}
	}
	nocCfg := cfg.NoC
	nocCfg.Tiles = cfg.Tiles
	net, err := noc.New(k, nocCfg, s.Locals)
	if err != nil {
		return nil, err
	}
	// Remote writes into a cluster-scratch window land in the cluster
	// memory the address names (like local addresses, the address
	// identifies the destination RAM); everything else goes to the
	// destination tile's local memory.
	net.SetMemResolver(func(dst int, addr mem.Addr) *mem.Local {
		if addr >= ClusterBase && addr < LocalBase {
			cl, _ := ClusterOffset(addr)
			return s.Clusters[cl].Scratch
		}
		return s.Locals[dst]
	})
	s.Net = net
	switch cfg.Locks {
	case LockCentralized:
		// The lock table sits at the top of SDRAM, away from data.
		s.centralLockBase = SDRAMBase + mem.Addr(cfg.SDRAMBytes-centralLockWords*4)
		s.CLock = lock.NewCentralized(s.SDRAM, s.centralLockBase, centralLockWords)
		s.Locks = s.CLock
	default:
		s.DLock = lock.NewDistributed(k, s.Net)
		s.Locks = s.DLock
	}
	s.Tiles = make([]*Tile, cfg.Tiles)
	for i := range s.Tiles {
		s.Tiles[i] = newTile(s, i)
		cl := s.Clusters[i/tilesPer]
		s.Tiles[i].Cluster = cl
		cl.Tiles = append(cl.Tiles, s.Tiles[i])
	}
	return s, nil
}

// LocalAddr returns the global address of offset off inside tile t's local
// memory.
func LocalAddr(t int, off mem.Addr) mem.Addr {
	return LocalBase + mem.Addr(t)*LocalStride + off
}

// LocalOffset inverts LocalAddr for any tile, returning the owning tile and
// the offset.
func LocalOffset(a mem.Addr) (tile int, off mem.Addr) {
	if a < LocalBase {
		panic(fmt.Sprintf("soc: %#x is not a local address", a))
	}
	rel := a - LocalBase
	return int(rel / LocalStride), rel % LocalStride
}

// ClusterAddr returns the global address of offset off inside cluster cl's
// scratch memory.
func ClusterAddr(cl int, off mem.Addr) mem.Addr {
	return ClusterBase + mem.Addr(cl)*ClusterStride + off
}

// ClusterOffset inverts ClusterAddr, returning the owning cluster and the
// offset.
func ClusterOffset(a mem.Addr) (cluster int, off mem.Addr) {
	if a < ClusterBase || a >= LocalBase {
		panic(fmt.Sprintf("soc: %#x is not a cluster-scratch address", a))
	}
	rel := a - ClusterBase
	return int(rel / ClusterStride), rel % ClusterStride
}

// Run executes the simulation to completion.
func (s *System) Run() error { return s.K.Run() }

// Recycle hands the system's large buffers to the systems New builds
// after it: every memory chunk, every cache's tag array and data slab,
// and the kernel's timing wheel (see package recycle). Call it once Run
// has returned and every result has been read from the system. The
// system must not be used again: running it, or touching its memories or
// caches, panics. Recycling it again does nothing.
func (s *System) Recycle() {
	s.K.Recycle()
	s.SDRAM.Recycle()
	for _, sd := range s.seeds {
		sd.Recycle()
	}
	for _, t := range s.Tiles {
		t.IC.Recycle()
		t.DC.Recycle()
	}
}

// TotalStats sums all tile stats.
func (s *System) TotalStats() TileStats {
	var t TileStats
	for _, tl := range s.Tiles {
		t.Add(tl.Stats)
	}
	return t
}
