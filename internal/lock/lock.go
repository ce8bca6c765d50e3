// Package lock implements the synchronization primitives of the simulated
// SoC. The primary implementation is a distributed asymmetric lock in the
// spirit of the paper's reference [15] (Rutgers et al., IC-SAMOS 2012),
// reconstructed for a write-only interconnect:
//
//   - every lock has a home tile whose network interface hosts a small
//     hardware lock unit (the paper's platform provides hardware support;
//     we model the unit as part of the NI rather than a software server);
//   - a requester sends a request message to the home unit and then spins
//     on a flag in its own local memory — polling is local and puts no load
//     on the network or other tiles;
//   - the home unit queues requesters FIFO and hands the lock over with a
//     single grant message (a remote write of the waiter's local flag);
//   - operations by the home tile itself skip the network (the asymmetry
//     that gives the lock its name).
//
// A centralized test-and-set spin lock over uncached SDRAM is provided as
// the ablation baseline: every poll is a bus transaction, so spinning
// perturbs all tiles.
package lock

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/sim"
)

// NoHolder marks a lock that has never been held.
const NoHolder = -1

// request and grant message payload sizes in bytes, for NoC timing.
const (
	reqMsgSize   = 8
	grantMsgSize = 4
)

// Locker is the interface the PMC runtime uses. Acquire blocks the calling
// process until it holds lockID and returns the cycles it spent waiting
// (queueing + spinning) and the tile that held the lock before, NoHolder if
// none. Release gives the lock up; it is posted and does not block.
type Locker interface {
	Acquire(p *sim.Proc, tile, lockID int) (wait sim.Time, prevHolder int)
	Release(p *sim.Proc, tile, lockID int)
}

// TransferHook is invoked by the distributed lock when ownership moves
// between distinct tiles. It runs in event context (no process) at time t
// and returns the earliest time the grant may be sent — backends use it to
// move the protected object's data during the handoff (lazy release,
// Table II). from is NoHolder on first acquisition.
type TransferHook func(lockID, from, to int, t sim.Time) sim.Time

// Stats counts lock activity.
type Stats struct {
	Acquires      uint64
	LocalAcquires uint64 // requester == home tile
	Handoffs      uint64 // ownership changed tiles
	WaitTime      sim.Time
}

type waiter struct {
	tile int
	proc *sim.Proc
}

type lockState struct {
	held   bool
	holder int
	prev   int
	queue  []waiter
}

// Distributed is the asymmetric distributed lock manager. Locks are
// identified by small integers; lock i is homed on tile (i mod tiles).
type Distributed struct {
	k     *sim.Kernel
	net   *noc.Network
	tiles int
	locks map[int]*lockState

	// OnTransfer, if set, is called during cross-tile handoffs.
	OnTransfer TransferHook

	stats Stats
}

// NewDistributed returns a distributed lock manager over the network.
func NewDistributed(k *sim.Kernel, net *noc.Network) *Distributed {
	return &Distributed{
		k:     k,
		net:   net,
		tiles: net.Config().Tiles,
		locks: make(map[int]*lockState),
	}
}

// Stats returns a copy of the counters.
func (d *Distributed) Stats() Stats { return d.stats }

// Home returns the home tile of lockID: locks spread round-robin.
func (d *Distributed) Home(lockID int) int { return lockID % d.tiles }

func (d *Distributed) state(lockID int) *lockState {
	s, ok := d.locks[lockID]
	if !ok {
		s = &lockState{holder: NoHolder, prev: NoHolder}
		d.locks[lockID] = s
	}
	return s
}

// Acquire implements Locker. The calling process parks while the home unit
// queues it; the wait models the local spin on the grant flag.
func (d *Distributed) Acquire(p *sim.Proc, tile, lockID int) (wait sim.Time, prevHolder int) {
	home := d.Home(lockID)
	t0 := p.Now()
	d.stats.Acquires++
	if tile == home {
		d.stats.LocalAcquires++
	}
	// Request message to the home unit; the unit grants now or queues.
	d.net.PostControl(tile, home, reqMsgSize, func() {
		d.handleRequest(lockID, waiter{tile: tile, proc: p})
	})
	prev, _ := p.Park().(int)
	wait = p.Now() - t0
	d.stats.WaitTime += wait
	return wait, prev
}

// Release implements Locker. Posted: the caller continues immediately.
func (d *Distributed) Release(p *sim.Proc, tile, lockID int) {
	home := d.Home(lockID)
	d.net.PostControl(tile, home, grantMsgSize, func() {
		d.handleRelease(lockID, tile)
	})
}

// handleRequest runs at the home unit when a request message arrives.
func (d *Distributed) handleRequest(lockID int, w waiter) {
	s := d.state(lockID)
	if s.held {
		s.queue = append(s.queue, w)
		return
	}
	d.grant(lockID, s, w)
}

// handleRelease runs at the home unit when a release message arrives.
func (d *Distributed) handleRelease(lockID, tile int) {
	s := d.state(lockID)
	if !s.held || s.holder != tile {
		panic(fmt.Sprintf("lock: release of lock %d by tile %d, holder %d held=%v",
			lockID, tile, s.holder, s.held))
	}
	s.held = false
	s.prev = s.holder
	s.holder = NoHolder
	if len(s.queue) > 0 {
		w := s.queue[0]
		s.queue = s.queue[1:]
		d.grant(lockID, s, w)
	}
}

// grant hands the lock to w, running the transfer hook for cross-tile
// handoffs, then delivers the grant (a remote write to the waiter's spin
// flag, modelled by unparking it at the grant's arrival time).
func (d *Distributed) grant(lockID int, s *lockState, w waiter) {
	s.held = true
	from := s.prev
	s.holder = w.tile
	sendAt := d.k.Now()
	if from != w.tile && from != NoHolder {
		d.stats.Handoffs++
	}
	if d.OnTransfer != nil && from != w.tile {
		sendAt = d.OnTransfer(lockID, from, w.tile, sendAt)
	}
	home := d.Home(lockID)
	deliver := func() {
		d.net.PostControl(home, w.tile, grantMsgSize, func() {
			w.proc.Unpark(from)
		})
	}
	if sendAt <= d.k.Now() {
		deliver()
	} else {
		d.k.ScheduleAt(sendAt, deliver)
	}
}

// tasBackoff is the idle time between failed TAS attempts.
const tasBackoff sim.Time = 16

// Centralized is the baseline: a test-and-set spin lock on an uncached
// SDRAM word per lock. Spinning occupies the shared bus.
type Centralized struct {
	sdram *mem.SDRAM
	base  mem.Addr // word array indexed by lockID
	nmax  int

	holders map[int]int // lockID -> tile, bookkeeping for prevHolder
	prev    map[int]int

	stats Stats
}

// NewCentralized returns a centralized lock manager using nmax words of
// SDRAM at base.
func NewCentralized(sdram *mem.SDRAM, base mem.Addr, nmax int) *Centralized {
	return &Centralized{
		sdram:   sdram,
		base:    base,
		nmax:    nmax,
		holders: make(map[int]int),
		prev:    make(map[int]int),
	}
}

// Stats returns a copy of the counters.
func (c *Centralized) Stats() Stats { return c.stats }

func (c *Centralized) addr(lockID int) mem.Addr {
	if lockID < 0 || lockID >= c.nmax {
		panic(fmt.Sprintf("lock: id %d out of range [0,%d)", lockID, c.nmax))
	}
	return c.base + mem.Addr(lockID)*4
}

// Acquire implements Locker by TAS spinning over the bus.
func (c *Centralized) Acquire(p *sim.Proc, tile, lockID int) (wait sim.Time, prevHolder int) {
	t0 := p.Now()
	a := c.addr(lockID)
	for {
		old, _ := c.sdram.TestAndSet32(p, a, uint32(tile)+1)
		if old == 0 {
			break
		}
		p.Wait(tasBackoff)
	}
	c.stats.Acquires++
	prev, ok := c.prev[lockID]
	if !ok {
		prev = NoHolder
	}
	if prev != tile && prev != NoHolder {
		c.stats.Handoffs++
	}
	c.holders[lockID] = tile
	wait = p.Now() - t0
	c.stats.WaitTime += wait
	return wait, prev
}

// Release implements Locker with a single uncached store.
func (c *Centralized) Release(p *sim.Proc, tile, lockID int) {
	if h, ok := c.holders[lockID]; !ok || h != tile {
		panic(fmt.Sprintf("lock: centralized release of %d by non-holder tile %d", lockID, tile))
	}
	c.prev[lockID] = tile
	delete(c.holders, lockID)
	c.sdram.WriteWord(p, c.addr(lockID), 0)
}
