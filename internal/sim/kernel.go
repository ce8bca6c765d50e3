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
// The kernel is the substrate for the SoC model in internal/soc; it knows
// nothing about memories, caches or networks.
package sim

import (
	"fmt"
	"sort"
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

	procs   []*Proc
	live    int // processes that have not finished
	parked  int // processes blocked in Park
	stopped bool

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

// New returns a ready-to-run kernel.
func New() *Kernel {
	return &Kernel{wheel: &wheelQueue{}}
}

// skipTo is the wait fast path, shared by WaitUntil and step chains. If
// the kernel is not stopping, t is within MaxTime and no event is due at
// or before t, a wait until t would be resumed by the very next dispatch
// with now == t, so skipTo advances the clock in place and reports true.
// This is exact, not approximate: nothing is scheduled inside the skipped
// window, so nothing can observe it. In the common case the peek at the
// queue is one load of the wheel's cached minimum.
func (k *Kernel) skipTo(t Time) bool {
	if k.stopped || (k.MaxTime != 0 && t > k.MaxTime) {
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

// Schedule runs fn at the current time plus delay. Events scheduled for the
// same cycle run in the order they were scheduled.
func (k *Kernel) Schedule(delay Time, fn func()) {
	k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt runs fn at absolute time t, which must not be in the past.
func (k *Kernel) ScheduleAt(t Time, fn func()) {
	if t < k.now {
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
	p := &Proc{
		k:    k,
		id:   len(k.procs),
		name: name,
	}
	p.resumeFn = func() { k.resume(p) }
	p.chainFn = func() { k.chain(p) }
	k.procs = append(k.procs, p)
	k.live++
	k.ScheduleAt(k.now, func() { p.start(body) })
	return p
}

// Run dispatches events until the event queue is empty or Stop is called.
// It returns an error on deadlock: the queue drained while unfinished
// processes remain parked.
func (k *Kernel) Run() error {
	for k.wheel.len() > 0 && !k.stopped {
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
	if !k.stopped && k.live > 0 {
		return fmt.Errorf("sim: deadlock at cycle %d: %d process(es) still blocked: %s",
			k.now, k.live, k.blockedNames())
	}
	return nil
}

// Stop makes Run return after the current event completes. Remaining events
// are discarded. It is primarily useful from watchdog events and tests.
func (k *Kernel) Stop() { k.stopped = true }

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
