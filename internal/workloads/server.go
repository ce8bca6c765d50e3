package workloads

import (
	"fmt"

	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/stats"
)

// Server is the open-loop request/response service: requests arrive on a
// deterministic Poisson process at the configured offered load, are
// statically sharded round-robin across Servers handler tiles, and each
// handler claims a scoped session object (entry_x), applies a
// read-modify-write plus modelled compute, and releases it. Sessions are
// shared across handlers, so locking and coherence traffic scale with
// load exactly as in the kernels — but the figure of merit is p50/p99
// simulated latency (completion − scheduled arrival) and sustained
// throughput, not makespan.
type Server struct {
	// Requests is the total offered request count.
	Requests int
	// Load is the offered load in requests per kilocycle (all handlers
	// together).
	Load float64
	// Servers is the number of handler tiles; tiles beyond it idle.
	Servers int
	// Sessions is the number of shared session objects handlers claim.
	Sessions int
	// Work is the modelled per-request handler compute (cycles).
	Work int
	// Seed drives the arrival schedule and session assignment.
	Seed uint32

	arrivals []sim.Time
	reqSess  []int
	reqDelta []uint32
	sess     []*rt.Object
	svc      *stats.Service
}

// DefaultServer returns the evaluation configuration.
func DefaultServer() *Server {
	return &Server{Requests: 160, Load: 4, Servers: 4, Sessions: 12, Work: 120, Seed: 1}
}

// Name implements App.
func (a *Server) Name() string { return "server" }

// Setup implements App.
func (a *Server) Setup(r *rt.Runtime, tiles int) {
	if a.Servers > tiles {
		panic(fmt.Sprintf("server: %d handler tiles > %d tiles", a.Servers, tiles))
	}
	a.arrivals = poissonArrivals(a.Seed, a.Requests, a.Load)
	rnd := newRand(a.Seed ^ 0x5eed5eed)
	a.reqSess = make([]int, a.Requests)
	a.reqDelta = make([]uint32, a.Requests)
	for i := range a.reqSess {
		a.reqSess[i] = rnd.intn(a.Sessions)
		a.reqDelta[i] = rnd.next() | 1
	}
	a.sess = make([]*rt.Object, a.Sessions)
	for i := range a.sess {
		a.sess[i] = r.Alloc(fmt.Sprintf("sess%d", i), 4)
	}
	a.svc = &stats.Service{Offered: uint64(a.Requests)}
}

// Worker implements App: tiles [0,Servers) each serve their round-robin
// share of the request stream in arrival order; the rest idle.
func (a *Server) Worker(c *rt.Ctx, tile, tiles int) {
	if tile >= a.Servers {
		return
	}
	c.SetCodeFootprint(2 * 1024)
	for i := tile; i < a.Requests; i += a.Servers {
		c.WaitUntil(a.arrivals[i]) // open loop: never before schedule
		s := a.sess[a.reqSess[i]]
		c.EntryX(s)
		v := c.Read32(s, 0)
		c.Compute(a.Work)
		c.Write32(s, 0, v+a.reqDelta[i])
		c.ExitX(s)
		a.svc.Record(a.arrivals[i], c.Now())
	}
}

// Checksum implements App: the fold of the final session values. Each
// session's value is the sum of its requests' deltas — commutative, so
// the checksum is identical for every backend and timing.
func (a *Server) Checksum(r *rt.Runtime) uint32 {
	var sum uint32
	for i, o := range a.sess {
		sum += r.ReadObjectWord(o, 0) * (uint32(i)*2 + 1)
	}
	return sum
}

// Service implements ServiceApp.
func (a *Server) Service() *stats.Service { return a.svc }
