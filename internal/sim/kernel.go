// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel models simulated time in integer cycles. Simulation activity is
// expressed either as scheduled events (closures that run at a given cycle)
// or as processes: coroutines (iter.Pull) that interleave with the kernel
// through a strict one-token handshake, so that exactly one execution
// context — the kernel or a single process — runs at any moment. Because
// events are dispatched in (time, sequence) order and processes only advance
// when resumed by the kernel, a simulation is fully deterministic: the same
// program produces the same event order, the same final state and the same
// cycle counts on every run, regardless of GOMAXPROCS. The coroutine
// handshake never touches the Go scheduler, so independent simulations in
// one address space scale across cores instead of thrashing each other with
// cross-P wakeups.
//
// Two mechanisms keep coroutine switches rare without changing the event
// order. A wait that nothing could run ahead of advances the clock in
// place (the fast path). A process can hand a whole chain of timed steps
// to the kernel (Proc.Steps): once a wait in the chain has to yield, the
// remaining steps run as kernel events in the slots the process's own
// resumptions would have taken, and the coroutine is resumed once, when
// the chain ends. The kernel's Counters report events dispatched,
// coroutine resumes, fast-path waits and chain steps, all exact.
//
// Two free lists keep a simulation's own buffers out of the garbage
// collector. Within a run, dispatched event structs are reused by later
// waits. Across runs, a kernel's timing wheel goes back to a bounded
// package-level list when its system is recycled (Kernel.Recycle), and
// New draws from that list, so a process of many short runs, like a
// conformance check, builds the wheel's slot arrays only a few times.
//
// However a run ends short (watchdog, deadlock, or a panic out of a
// process or event), Run stops every unfinished process on its way out:
// a stopped process unwinds its body without simulating anything more,
// and leaves no goroutine behind.
//
// The kernel is the substrate for the SoC model in internal/soc; it knows
// nothing about memories, caches or networks.
package sim

import (
	"fmt"
	"sort"

	"pmc/internal/recycle"
)

// Time is a point in simulated time, measured in cycles.
type Time uint64

// Forever is a time later than any reachable simulation time. Parked
// processes are conceptually waiting until Forever.
const Forever = Time(^uint64(0))

// event is a closure scheduled to run at a fixed cycle. Events with equal
// time run in scheduling order (seq).
type event struct {
	at  Time
	seq uint64
	fn  func()
	// next links events within one timing-wheel slot.
	next *event
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; call New.
type Kernel struct {
	now Time
	// wheel is the pending-event queue, called through its concrete type
	// because the per-Wait peek (nextAt) is the hottest load in the
	// simulator and must stay inlinable.
	wheel *wheelQueue
	seq   uint64

	procs []*Proc
	live  int // processes that have not finished

	// free recycles dispatched event structs: a simulation schedules one
	// event per process wait, and recycling keeps that hot path from
	// feeding the garbage collector (GC pacing, not CPU, was the scaling
	// limit for concurrent simulations).
	free []*event

	// MaxTime aborts the run when simulated time would pass it (a
	// watchdog against livelock in modelled software). Zero means no
	// limit.
	MaxTime Time

	// Counters are the kernel's work counts for this run.
	Counters Counters
}

// Counters are exact, deterministic counts of the kernel's work: the
// same program produces the same counts on every run.
type Counters struct {
	Events     uint64 // events dispatched by Run
	Resumes    uint64 // coroutine resumes (switches into a process)
	FastWaits  uint64 // waits that advanced the clock in place, with no event
	ChainSteps uint64 // chain steps run as kernel events (see Proc.Steps)
}

// maxFreeWheels bounds the free list of timing wheels that recycled
// kernels hand to later ones.
const maxFreeWheels = 8

var freeWheels = recycle.New[*wheelQueue](maxFreeWheels)

// New returns a ready-to-run kernel.
func New() *Kernel {
	w, ok := freeWheels.Get(0)
	if !ok {
		w = &wheelQueue{}
	}
	return &Kernel{wheel: w}
}

// Recycle hands the kernel's timing wheel, emptied to its zero value, to
// the kernels New makes after it. Call it once Run has returned. The
// kernel must not be used again: Run, Spawn and ScheduleAt panic.
// Recycling it again does nothing.
func (k *Kernel) Recycle() {
	if k.wheel == nil {
		return
	}
	*k.wheel = wheelQueue{} // drops any event a failed run left queued
	freeWheels.Put(0, k.wheel)
	k.wheel = nil
	// Every time is in the past now, so ScheduleAt takes its panic path.
	k.now = Forever
}

// skipTo is the wait fast path, shared by WaitUntil and step chains. If
// t is within MaxTime and no event is due at or before t, a wait until t
// would be resumed by the very next dispatch with now == t, so skipTo
// advances the clock in place and reports true.
// This is exact, not approximate: nothing is scheduled inside the skipped
// window, so nothing can observe it. In the common case the peek at the
// queue is one load of the wheel's cached minimum.
func (k *Kernel) skipTo(t Time) bool {
	if k.MaxTime != 0 && t > k.MaxTime {
		return false
	}
	if at, ok := k.wheel.nextAt(); ok && at <= t {
		return false
	}
	k.now = t
	k.Counters.FastWaits++
	return true
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// ScheduleAt runs fn at absolute time t, which must not be in the past.
// Events scheduled for the same cycle run in the order they were scheduled.
func (k *Kernel) ScheduleAt(t Time, fn func()) {
	if t < k.now {
		k.checkLive()
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now %d)", t, k.now))
	}
	k.seq++
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free = k.free[:n-1]
		e.at, e.seq, e.fn = t, k.seq, fn
	} else {
		e = &event{at: t, seq: k.seq, fn: fn}
	}
	k.wheel.push(e)
}

// Spawn creates a process running body in its own coroutine. The process
// starts at the current simulated time, after already-pending events for
// this cycle. Spawn may be called before Run or from inside a running
// process or event.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	k.checkLive()
	p := &Proc{
		k:    k,
		name: name,
	}
	p.resumeFn = func() { k.resume(p) }
	p.chainFn = func() { k.chain(p) }
	k.procs = append(k.procs, p)
	k.live++
	k.ScheduleAt(k.now, func() { p.start(body) })
	return p
}

// Run dispatches events until the event queue is empty. It returns an
// error on deadlock: the queue drained while unfinished processes remain
// parked. However Run ends (error, or a panic from a process or event),
// it stops every unfinished process first.
func (k *Kernel) Run() error {
	k.checkLive()
	defer k.stopAll()
	for k.wheel.len() > 0 {
		e := k.wheel.pop()
		if k.MaxTime != 0 && e.at > k.MaxTime {
			return fmt.Errorf("sim: watchdog: time %d exceeds MaxTime %d", e.at, k.MaxTime)
		}
		k.now = e.at
		fn := e.fn
		e.fn = nil
		k.free = append(k.free, e)
		k.Counters.Events++
		fn()
	}
	if k.live > 0 {
		return fmt.Errorf("sim: deadlock at cycle %d: %d process(es) still blocked: %s",
			k.now, k.live, k.blockedNames())
	}
	return nil
}

// checkLive panics on a recycled kernel.
func (k *Kernel) checkLive() {
	if k.wheel == nil {
		panic("sim: use of a recycled kernel")
	}
}

// stopAll retires every unfinished process of a failed run (a finished
// run has none). A started process's coroutine is stopped: its pending
// suspend panics with errStopped, which unwinds the body back to start,
// so it runs no more simulation and its goroutine exits instead of
// blocking forever (and pinning its whole system). A process whose body
// panicked has already finished its coroutine; stopping it does nothing.
func (k *Kernel) stopAll() {
	for _, p := range k.procs {
		if p.done {
			continue
		}
		p.done = true
		k.live--
		if p.stop != nil {
			p.stop()
		}
	}
}

func (k *Kernel) blockedNames() string {
	var names []string
	for _, p := range k.procs {
		if !p.done {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// resume hands the run token to p and returns when p yields it back: a
// direct coroutine switch, no scheduler round-trip. It must only be called
// from the kernel's own goroutine (inside an event). When the process body
// returns, the coroutine is exhausted and the process is retired.
func (k *Kernel) resume(p *Proc) {
	k.Counters.Resumes++
	if _, ok := p.next(); !ok && !p.done {
		p.done = true
		k.live--
	}
}
