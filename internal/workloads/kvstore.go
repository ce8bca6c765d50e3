package workloads

import (
	"fmt"

	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/stats"
)

// KVStore is a sharded key-value store under open-loop traffic with
// hot-key skew: Shards shard objects of Keys words each, Clients client
// tiles issuing a deterministic Poisson stream of GETs (entry_ro +
// ranged read on the shard — on dsm/cdsm this hits the local replica)
// and PUTs (entry_x read-modify-write). A configurable fraction of
// operations lands on one hot key, so the hot shard's lock serializes at
// high load — the scenario where the per-object adaptive backend and
// placement maps should pay off.
type KVStore struct {
	// Ops is the total offered operation count.
	Ops int
	// Load is the offered load in operations per kilocycle.
	Load float64
	// Clients is the number of client tiles; tiles beyond it idle.
	Clients int
	// Shards and Keys shape the store: Shards objects of Keys words.
	Shards int
	Keys   int
	// HotPct is the percentage of operations hitting the hot key
	// (shard 0, key 0).
	HotPct int
	// ReadPct is the percentage of operations that are GETs.
	ReadPct int
	// Work is the modelled per-op compute (cycles).
	Work int
	// Seed drives the arrival schedule and the op mix.
	Seed uint32

	arrivals []sim.Time
	opShard  []int
	opKey    []int
	opRead   []bool
	opDelta  []uint32
	shards   []*rt.Object
	svc      *stats.Service
}

// DefaultKVStore returns the evaluation configuration.
func DefaultKVStore() *KVStore {
	return &KVStore{Ops: 160, Load: 5, Clients: 4, Shards: 4, Keys: 8,
		HotPct: 30, ReadPct: 70, Work: 60, Seed: 2}
}

// Name implements App.
func (a *KVStore) Name() string { return "kvstore" }

// Setup implements App.
func (a *KVStore) Setup(r *rt.Runtime, tiles int) {
	if a.Clients > tiles {
		panic(fmt.Sprintf("kvstore: %d client tiles > %d tiles", a.Clients, tiles))
	}
	a.arrivals = poissonArrivals(a.Seed, a.Ops, a.Load)
	rnd := newRand(a.Seed ^ 0x6b76) // "kv"
	a.opShard = make([]int, a.Ops)
	a.opKey = make([]int, a.Ops)
	a.opRead = make([]bool, a.Ops)
	a.opDelta = make([]uint32, a.Ops)
	for i := 0; i < a.Ops; i++ {
		if rnd.intn(100) < a.HotPct {
			a.opShard[i], a.opKey[i] = 0, 0 // hot key
		} else {
			a.opShard[i], a.opKey[i] = rnd.intn(a.Shards), rnd.intn(a.Keys)
		}
		a.opRead[i] = rnd.intn(100) < a.ReadPct
		a.opDelta[i] = rnd.next() | 1
	}
	a.shards = make([]*rt.Object, a.Shards)
	for i := range a.shards {
		a.shards[i] = r.Alloc(fmt.Sprintf("shard%d", i), a.Keys*4)
	}
	a.svc = &stats.Service{Offered: uint64(a.Ops)}
}

// Worker implements App: tiles [0,Clients) each issue their round-robin
// share of the op stream in arrival order; the rest idle.
func (a *KVStore) Worker(c *rt.Ctx, tile, tiles int) {
	if tile >= a.Clients {
		return
	}
	c.SetCodeFootprint(2 * 1024)
	for i := tile; i < a.Ops; i += a.Clients {
		c.WaitUntil(a.arrivals[i])
		sh := a.shards[a.opShard[i]]
		off := a.opKey[i] * 4
		if a.opRead[i] {
			c.EntryRO(sh)
			_ = c.Read32(sh, off)
			c.ExitRO(sh)
			c.Compute(a.Work)
		} else {
			c.EntryX(sh)
			v := c.Read32(sh, off)
			c.Compute(a.Work)
			c.Write32(sh, off, v+a.opDelta[i])
			c.ExitX(sh)
		}
		a.svc.Record(a.arrivals[i], c.Now())
	}
}

// Checksum implements App: the fold of the final store contents. Each
// key's value is the commutative sum of its PUT deltas, so the checksum
// is identical for every backend and timing. GET values deliberately do
// not enter the checksum — what a GET observes is timing-dependent.
func (a *KVStore) Checksum(r *rt.Runtime) uint32 {
	var sum uint32
	for si, o := range a.shards {
		for k := 0; k < a.Keys; k++ {
			sum += r.ReadObjectWord(o, k) * (uint32(si*a.Keys+k)*2 + 1)
		}
	}
	return sum
}

// Service implements ServiceApp.
func (a *KVStore) Service() *stats.Service { return a.svc }
