// Package noc models the connectionless, write-only network-on-chip of the
// simulated SoC (paper Fig. 7, ref [16]): a tile may write into any other
// tile's local memory, but may not read remote memories. Writes are posted —
// the sender continues after injecting the message — and each (source,
// destination) flow delivers in FIFO order, which is the ordering property
// the DSM backend's coherence and the distributed lock's grant protocol rely
// on.
//
// The topology is a bidirectional ring by default (hop count = shortest ring
// distance), matching the modest many-core NoCs the paper targets; the hop
// latency, flit width and injection latency are the platform's constants.
package noc

import (
	"fmt"
	"strconv"
	"strings"

	"pmc/internal/mem"
	"pmc/internal/sim"
)

// Kind is a basic interconnect shape.
type Kind uint8

const (
	// KindRing is a bidirectional ring.
	KindRing Kind = iota
	// KindMesh is a 2-D mesh with XY routing.
	KindMesh
	// KindCluster is the hierarchical topology: a single-hop crossbar
	// inside each cluster of tiles, with a ring or mesh backbone between
	// cluster routers.
	KindCluster
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindCluster:
		return "cluster"
	}
	return "ring"
}

// Topology selects the interconnect shape. It is a comparable value: the
// zero value is the flat ring. Flat topologies use only Kind; the cluster
// topology additionally carries the cluster size and the backbone kind.
type Topology struct {
	// Kind is the overall shape.
	Kind Kind
	// Local is the number of tiles per cluster (KindCluster only).
	Local int
	// Global is the inter-cluster backbone, ring or mesh (KindCluster
	// only).
	Global Kind
}

// Flat topologies, named for convenience.
var (
	// TopoRing is the flat bidirectional ring (the default).
	TopoRing = Topology{Kind: KindRing}
	// TopoMesh is the flat 2-D mesh, the smallest square that fits the
	// tile count.
	TopoMesh = Topology{Kind: KindMesh}
)

// ClusterTopo returns the hierarchical topology with local tiles per
// cluster and the given inter-cluster backbone.
func ClusterTopo(local int, global Kind) Topology {
	return Topology{Kind: KindCluster, Local: local, Global: global}
}

// String names the topology; cluster topologies render as
// "cluster:<local>x<global>", the syntax ParseTopology accepts.
func (t Topology) String() string {
	if t.Kind == KindCluster {
		return fmt.Sprintf("cluster:%dx%s", t.Local, t.Global)
	}
	return t.Kind.String()
}

// ParseTopology converts a topology spec to a Topology: "ring", "mesh", or
// "cluster:<local>x<global>" where <local> is the tiles-per-cluster count
// and <global> is the backbone ("ring" or "mesh") — e.g. "cluster:16xmesh".
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "ring":
		return TopoRing, nil
	case "mesh":
		return TopoMesh, nil
	}
	if spec, ok := strings.CutPrefix(s, "cluster:"); ok {
		localStr, globalStr, ok := strings.Cut(spec, "x")
		if !ok {
			return Topology{}, fmt.Errorf("noc: cluster topology %q: want cluster:<local>x<global>, e.g. cluster:16xmesh", s)
		}
		local, err := strconv.Atoi(localStr)
		if err != nil || local <= 0 {
			return Topology{}, fmt.Errorf("noc: cluster topology %q: tiles per cluster %q must be a positive integer", s, localStr)
		}
		var global Kind
		switch globalStr {
		case "ring":
			global = KindRing
		case "mesh":
			global = KindMesh
		default:
			return Topology{}, fmt.Errorf("noc: cluster topology %q: backbone %q must be ring or mesh", s, globalStr)
		}
		return ClusterTopo(local, global), nil
	}
	return Topology{}, fmt.Errorf("noc: unknown topology %q (valid: ring, mesh, cluster:<local>x<global>)", s)
}

// The NoC timing of the paper's platform. A message's head arrives
// InjLat + hops×HopLat cycles after injection, and each flit of FlitSize
// payload bytes after the first adds one cycle of serialization.
const (
	HopLat   sim.Time = 2 // cycles per hop, on every link
	FlitSize          = 4 // payload bytes carried per flit cycle
	InjLat   sim.Time = 2 // fixed injection (network-interface) latency
)

// Config sets the network's size and shape.
type Config struct {
	Tiles    int      // number of tiles
	Topology Topology // ring (default), mesh, or cluster
}

// maxTiles bounds a sane configuration: per-flow FIFO state is per (src,
// dst) pair (allocated lazily, one chunk of destinations at a time).
const maxTiles = 4096

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Tiles <= 0 {
		return fmt.Errorf("noc: %d tiles", c.Tiles)
	}
	if c.Tiles > maxTiles {
		return fmt.Errorf("noc: %d tiles exceeds the supported maximum %d", c.Tiles, maxTiles)
	}
	if c.Topology.Kind == KindCluster {
		t := c.Topology
		if t.Local <= 0 {
			return fmt.Errorf("noc: cluster topology needs a positive tiles-per-cluster count, got %d", t.Local)
		}
		if c.Tiles%t.Local != 0 {
			return fmt.Errorf("noc: %d tiles do not divide into clusters of %d", c.Tiles, t.Local)
		}
		if t.Global != KindRing && t.Global != KindMesh {
			return fmt.Errorf("noc: cluster backbone must be ring or mesh, got %v", t.Global)
		}
	}
	return nil
}

// Stats counts network activity. FlitHops is the total (a proxy for link
// energy/occupancy); on the cluster topology it additionally splits into
// the intra-cluster and backbone shares (flat topologies count everything
// as local).
type Stats struct {
	Messages       uint64
	Bytes          uint64
	FlitHops       uint64 // flits × hops, all links
	LocalFlitHops  uint64 // flits × hops on intra-cluster / flat links
	GlobalFlitHops uint64 // flits × hops on the inter-cluster backbone
}

// Network is the write-only interconnect. Delivery mutates destination
// local memory (or runs an arbitrary closure for control messages such as
// lock grants) at the computed arrival time.
type Network struct {
	k      *sim.Kernel
	cfg    Config
	locals []*mem.Local

	// flows[src][dst/flowChunk][dst%flowChunk] enforces per-flow FIFO
	// delivery. A source's chunk directory is allocated on its first
	// message and each chunk on the first message into it: most sources
	// of a large system message only a lock home or two, so a row of
	// every destination (8 KiB at 1024 tiles) would be mostly unused.
	flows [][][]sim.Time
	// meshW is the mesh edge length (flat mesh only).
	meshW int
	// clusterMeshW is the backbone mesh edge length (cluster topology
	// with a mesh backbone only).
	clusterMeshW int

	// resolve maps a delivery (dst tile, address) to the memory the
	// write lands in. The default resolves to the destination tile's
	// local memory; the SoC layer overrides it to route cluster-scratch
	// addresses to the cluster memory (SetMemResolver).
	resolve func(dst int, addr mem.Addr) *mem.Local

	stats Stats
}

// New returns a network over the given per-tile local memories. locals[i]
// is tile i's memory; len(locals) must equal cfg.Tiles. An invalid
// configuration is rejected (Validate).
func New(k *sim.Kernel, cfg Config, locals []*mem.Local) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(locals) != cfg.Tiles {
		return nil, fmt.Errorf("noc: %d locals for %d tiles", len(locals), cfg.Tiles)
	}
	n := &Network{
		k:      k,
		cfg:    cfg,
		locals: locals,
		flows:  make([][][]sim.Time, cfg.Tiles),
	}
	n.resolve = func(dst int, addr mem.Addr) *mem.Local { return n.locals[dst] }
	squareUp := func(count int) int {
		w := 1
		for w*w < count {
			w++
		}
		return w
	}
	switch cfg.Topology.Kind {
	case KindMesh:
		n.meshW = squareUp(cfg.Tiles)
	case KindCluster:
		if cfg.Topology.Global == KindMesh {
			n.clusterMeshW = squareUp(cfg.Tiles / cfg.Topology.Local)
		}
	}
	return n, nil
}

// SetMemResolver overrides how a delivery's (destination tile, address) is
// mapped to a destination memory. The SoC layer installs a resolver that
// routes cluster-scratch addresses to the destination tile's cluster
// memory; everything else stays in the tile's local memory.
func (n *Network) SetMemResolver(f func(dst int, addr mem.Addr) *mem.Local) {
	n.resolve = f
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

// route returns the hop counts a message takes between two tiles, split
// into local (intra-cluster or flat) and global (backbone) links:
//
//   - flat ring: shortest ring distance, all local;
//   - flat mesh: Manhattan distance under XY routing, all local;
//   - cluster: one crossbar hop within a cluster; between clusters, one
//     hop up to the source cluster's router, the backbone ring/mesh
//     distance, and one hop down to the destination tile.
func (n *Network) route(src, dst int) (local, global int) {
	switch n.cfg.Topology.Kind {
	case KindMesh:
		sx, sy := src%n.meshW, src/n.meshW
		dx, dy := dst%n.meshW, dst/n.meshW
		return abs(sx-dx) + abs(sy-dy), 0
	case KindCluster:
		cl := n.cfg.Topology.Local
		sc, dc := src/cl, dst/cl
		if sc == dc {
			return 1, 0
		}
		clusters := n.cfg.Tiles / cl
		if n.cfg.Topology.Global == KindMesh {
			sx, sy := sc%n.clusterMeshW, sc/n.clusterMeshW
			dx, dy := dc%n.clusterMeshW, dc/n.clusterMeshW
			return 2, abs(sx-dx) + abs(sy-dy)
		}
		d := abs(sc - dc)
		if r := clusters - d; r < d {
			d = r
		}
		return 2, d
	}
	d := abs(src - dst)
	if r := n.cfg.Tiles - d; r < d {
		d = r
	}
	return d, 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// flitCount returns the flit count of a payload of size bytes: at least one,
// for the header of an empty message.
func flitCount(size int) int {
	return max(1, (size+FlitSize-1)/FlitSize)
}

// latency returns the head-arrival latency of a message of the given
// flit count over the given hops.
func latency(hops, flits int) sim.Time {
	return InjLat + sim.Time(hops)*HopLat + sim.Time(flits-1)
}

// ControlLatency returns the head-arrival latency of a control message of
// the given size, without injecting anything. Lock-transfer protocols use
// it to compute multi-hop handoff schedules.
func (n *Network) ControlLatency(src, dst, size int) sim.Time {
	if src == dst {
		return InjLat
	}
	local, global := n.route(src, dst)
	return latency(local+global, flitCount(size))
}

// flowChunk is the number of destinations whose flow state is allocated
// together; a network of flowChunk tiles or fewer has one chunk per
// source.
const flowChunk = 64

// flow returns the last delivery time slot of flow src→dst, allocating
// its chunk on the flow's first message.
func (n *Network) flow(src, dst int) *sim.Time {
	dir := n.flows[src]
	if dir == nil {
		dir = make([][]sim.Time, (n.cfg.Tiles+flowChunk-1)/flowChunk)
		n.flows[src] = dir
	}
	chunk := dir[dst/flowChunk]
	if chunk == nil {
		base := dst / flowChunk * flowChunk
		chunk = make([]sim.Time, min(flowChunk, n.cfg.Tiles-base))
		dir[dst/flowChunk] = chunk
	}
	return &chunk[dst%flowChunk]
}

// arrival computes and records the FIFO-respecting delivery time of a new
// message on flow src→dst injected at base.
func (n *Network) arrivalAt(base sim.Time, src, dst, size int) sim.Time {
	local, global := n.route(src, dst)
	flits := flitCount(size)
	at := base + latency(local+global, flits)
	last := n.flow(src, dst)
	if at <= *last {
		at = *last + 1
	}
	*last = at
	n.stats.Messages++
	n.stats.Bytes += uint64(size)
	n.stats.FlitHops += uint64(flits * (local + global))
	n.stats.LocalFlitHops += uint64(flits * local)
	n.stats.GlobalFlitHops += uint64(flits * global)
	return at
}

// arrival injects at the current time.
func (n *Network) arrival(src, dst, size int) sim.Time {
	return n.arrivalAt(n.k.Now(), src, dst, size)
}

// PostWriteDelayed injects a posted remote write of data into dst's local
// memory at address addr, with injection deferred until earliest (at
// least the current time). The sender does not stall; the write becomes
// visible in the destination memory at the returned delivery time. The
// data is snapshotted now, so callers that need a later snapshot should
// capture it themselves. Lock-transfer handoffs use the deferral to model
// "notify previous owner, previous owner pushes the object".
func (n *Network) PostWriteDelayed(src, dst int, addr mem.Addr, data []byte, earliest sim.Time) (deliveredAt sim.Time) {
	if src == dst {
		panic("noc: remote write to own tile (use the core port)")
	}
	base := n.k.Now()
	if earliest > base {
		base = earliest
	}
	at := n.arrivalAt(base, src, dst, len(data))
	buf := append([]byte(nil), data...)
	n.k.ScheduleAt(at, func() { n.resolve(dst, addr).NoCWriteBlock(addr, buf) })
	return at
}

// PostWriteFan injects one burst of posted remote writes carrying the same
// payload to several destinations — the multicast pattern of a DSM flush
// broadcast. The network interface streams the messages back-to-back (the
// i-th message's flits enter the network right behind the previous
// message's, per-flit pipelining) instead of the core re-arbitrating
// injection per message, so the caller charges the core once for
// programming the burst rather than once per destination. Per-flow FIFO
// order is preserved; the data is snapshotted once at injection time. It
// returns the latest delivery time.
func (n *Network) PostWriteFan(src int, dsts []int, addrOf func(dst int) mem.Addr, data []byte) (last sim.Time) {
	if len(dsts) == 0 {
		return n.k.Now()
	}
	flits := flitCount(len(data))
	buf := append([]byte(nil), data...) // one snapshot shared by all copies
	base := n.k.Now()
	for i, dst := range dsts {
		if dst == src {
			panic("noc: remote write to own tile (use the core port)")
		}
		at := n.arrivalAt(base+sim.Time(i*flits), src, dst, len(data))
		dst := dst
		n.k.ScheduleAt(at, func() {
			addr := addrOf(dst)
			n.resolve(dst, addr).NoCWriteBlock(addr, buf)
		})
		if at > last {
			last = at
		}
	}
	return last
}

// PostControl injects a control message (e.g. a lock request) delivered by
// running fn at the destination at the computed arrival time. size models
// the message's payload for timing. Control messages share each flow's FIFO
// order with data writes, so "write the data, then send the grant" works.
func (n *Network) PostControl(src, dst, size int, fn func()) (deliveredAt sim.Time) {
	var at sim.Time
	if src == dst {
		// Local control messages skip the network but still take the
		// injection latency (network-interface turnaround).
		at = n.k.Now() + InjLat
		n.stats.Messages++
	} else {
		at = n.arrival(src, dst, size)
	}
	n.k.ScheduleAt(at, fn)
	return at
}
