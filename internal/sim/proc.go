package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine that advances simulated time by
// calling Wait and friends and otherwise runs instantaneously in simulated
// time. All Proc methods must be called from the process's own coroutine
// (inside the body passed to Spawn); Unpark is the one exception and may be
// called from anywhere inside the simulation.
//
// The one-token handshake with the kernel rides on iter.Pull coroutines
// rather than channel ping-pong: a coroutine switch transfers control
// directly without waking the Go scheduler, so a suspend/resume pair costs
// a function call instead of two futex-mediated goroutine wakeups — and,
// critically for parallel sweeps, concurrently running simulations stop
// migrating across Ps on every handoff. A panic inside a process body
// propagates out of Kernel.Run on the caller's goroutine, where batch
// engines can contain it.
type Proc struct {
	k    *Kernel
	name string

	// next resumes the coroutine until its next yield (kernel side);
	// yield hands the token back to the kernel (process side); stop ends
	// a suspended coroutine (Kernel.stopAll).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// resumeFn is the proc's reusable wake-up event body (one closure per
	// process instead of one per wait); chainFn is its reusable
	// chain-step event body, and step the chain it runs (see Steps).
	resumeFn func()
	chainFn  func()
	step     func() (Time, bool)

	done   bool
	parked bool
	// unparkHint is set by Unpark and read back by Park so callers can
	// pass a small token (e.g. who woke us).
	unparkHint any
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// start runs the body with the handshake protocol. Called by the kernel in
// an event context.
func (p *Proc) start(body func(*Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Only stopAll marks a process done before its body
			// returns; then the body is unwinding from suspend's
			// errStopped. Any other panic propagates untouched.
			if p.done {
				if r := recover(); r != nil && r != errStopped {
					panic(r)
				}
			}
		}()
		body(p)
	})
	p.k.resume(p)
}

// errStopped is the panic that unwinds a stopped process's body.
var errStopped = errors.New("sim: process stopped")

// suspend schedules nothing; it just gives the token back and blocks until
// the kernel resumes this process. When the kernel stops the process
// instead (stopAll), suspend panics with errStopped.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Wait advances this process's view of time by d cycles. Wait(0) yields the
// processor: all events already scheduled for the current cycle run first.
func (p *Proc) Wait(d Time) {
	p.WaitUntil(p.k.now + d)
}

// WaitUntil blocks the process until absolute time t (>= now).
func (p *Proc) WaitUntil(t Time) {
	if p.done {
		panic("sim: WaitUntil on finished proc")
	}
	k := p.k
	p.checkWait(t)
	// The token round-trip through the kernel is skipped whenever it
	// would hand control straight back (skipTo).
	if k.skipTo(t) {
		return
	}
	k.ScheduleAt(t, p.resumeFn)
	p.suspend()
}

// Steps runs a chain of timed steps. step runs now; while it returns
// (t, true), the process waits until t exactly as WaitUntil(t) would and
// step runs again. Steps returns once step returns false.
//
// A chain costs at most one coroutine round trip: once a wait has to
// yield, the remaining steps run as kernel events, in the same (time,
// seq) slots the process's own resumptions would have taken, and the
// coroutine is resumed only when step returns false. The event order,
// and so everything the simulation computes, is the same as for the
// WaitUntil loop; only the stack the steps run on differs. step must
// therefore not block: it may schedule events and book resources, but
// must not call Wait, Park or Steps.
func (p *Proc) Steps(step func() (Time, bool)) {
	if p.done {
		panic("sim: Steps on finished proc")
	}
	p.step = step
	if p.k.runChain(p, false) {
		p.suspend()
	}
}

// chain is the event that continues p's yielded step chain. When the
// chain ends, it resumes p's coroutine in this same event: the one that
// would have resumed p at the end of the WaitUntil loop.
func (k *Kernel) chain(p *Proc) {
	if !k.runChain(p, true) {
		k.resume(p)
	}
}

// runChain runs p's steps until one returns false, reporting false, or
// until a wait has to yield: then it schedules the chain's event in the
// slot p's own resumption would take and reports true. asEvent says the
// steps run on the kernel's stack, inside an event.
func (k *Kernel) runChain(p *Proc, asEvent bool) bool {
	for {
		if asEvent {
			k.Counters.ChainSteps++
		}
		t, more := p.step()
		if !more {
			return false
		}
		p.checkWait(t)
		if !k.skipTo(t) {
			k.ScheduleAt(t, p.chainFn)
			return true
		}
	}
}

// checkWait panics if a wait until t would go back in time.
func (p *Proc) checkWait(t Time) {
	if t < p.k.now {
		panic(fmt.Sprintf("sim: proc %q wait until %d is in the past (now %d)", p.name, t, p.k.now))
	}
}

// Park blocks the process indefinitely until another process or event calls
// Unpark. It returns the hint passed to Unpark. A process blocked in Park
// counts towards deadlock detection.
func (p *Proc) Park() any {
	if p.parked {
		panic(fmt.Sprintf("sim: proc %q parked twice", p.name))
	}
	p.parked = true
	p.suspend()
	hint := p.unparkHint
	p.unparkHint = nil
	return hint
}

// Unpark schedules the parked process p to resume at the current time with
// the given hint. It panics if p is not parked. Unpark may be called from
// any event or process context.
func (p *Proc) Unpark(hint any) {
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked proc %q", p.name))
	}
	p.parked = false
	p.unparkHint = hint
	p.k.ScheduleAt(p.k.now, p.resumeFn)
}
