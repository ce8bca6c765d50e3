package rt

import (
	"fmt"
	"strings"

	"pmc/internal/sim"
)

// Fault injection: wrap a backend and selectively disable one of the
// Table II protocol mechanisms. Every mechanism the paper prescribes is
// load-bearing, and the fault tests (faults_test.go) plus the
// conformance harness (internal/conform, which the spec checker and the
// litmus fuzzer drive with a FaultSet) use this facility to prove it
// end-to-end: a
// disabled step must surface as wrong results, model violations, or
// livelock — never silently pass.

// FaultSet selects protocol steps to disable in a wrapped backend. The
// zero value disables nothing.
type FaultSet struct {
	// SkipExitFlush makes exit_x release the lock without flushing the
	// object (swcc: dirty data stays cached, SDRAM goes stale).
	SkipExitFlush bool
	// SkipROFlush makes exit_ro leave the object's lines resident
	// (swcc: future polls read stale cached data).
	SkipROFlush bool
	// SkipFlush turns flush() into a no-op (any backend: pollers on
	// weak-visibility backends never observe the value).
	SkipFlush bool
	// DropTransfer erases the data-carrying lock-transfer hook
	// (dsm/swcc-lazy: the new owner computes on a stale replica).
	DropTransfer bool
}

// String names the enabled faults, e.g. "release-without-flush".
func (f FaultSet) String() string {
	var parts []string
	if f.SkipExitFlush {
		parts = append(parts, "release-without-flush")
	}
	if f.SkipROFlush {
		parts = append(parts, "exit-ro-without-invalidate")
	}
	if f.SkipFlush {
		parts = append(parts, "flush-noop")
	}
	if f.DropTransfer {
		parts = append(parts, "dropped-transfer")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseFaultSet parses a "+"-separated list of fault names as printed by
// String ("none" or the empty string select nothing).
func ParseFaultSet(s string) (FaultSet, error) {
	var f FaultSet
	if s == "" || s == "none" {
		return f, nil
	}
	for _, part := range strings.Split(s, "+") {
		switch part {
		case "release-without-flush":
			f.SkipExitFlush = true
		case "exit-ro-without-invalidate":
			f.SkipROFlush = true
		case "flush-noop":
			f.SkipFlush = true
		case "dropped-transfer":
			f.DropTransfer = true
		default:
			return FaultSet{}, fmt.Errorf("rt: unknown fault %q (release-without-flush, exit-ro-without-invalidate, flush-noop, dropped-transfer)", part)
		}
	}
	return f, nil
}

// Enabled reports whether any fault is selected.
func (f FaultSet) Enabled() bool {
	return f.SkipExitFlush || f.SkipROFlush || f.SkipFlush || f.DropTransfer
}

// InjectFaults wraps b with the selected protocol faults. The wrapped
// backend still provides mutual exclusion (locks are untouched), so any
// resulting failure is a coherence failure, not a lock failure.
func InjectFaults(b Backend, f FaultSet) Backend {
	return &faulty{Backend: b, faults: f}
}

// faulty wraps a backend and selectively disables protocol steps.
type faulty struct {
	Backend
	faults FaultSet
}

func (f *faulty) ExitX(c *Ctx, o *Object) {
	if f.faults.SkipExitFlush {
		c.T.ReleaseLock(c.P, o.LockID) // no flush: dirty data stays cached
		return
	}
	f.Backend.ExitX(c, o)
}

func (f *faulty) ExitRO(c *Ctx, o *Object) {
	if f.faults.SkipROFlush {
		if c.scopes[o].locked {
			c.T.ReleaseLock(c.P, o.LockID)
		}
		return // lines stay resident: future polls read stale data
	}
	f.Backend.ExitRO(c, o)
}

func (f *faulty) Flush(c *Ctx, o *Object) {
	if f.faults.SkipFlush {
		return
	}
	f.Backend.Flush(c, o)
}

// lockTransfer drops the data-carrying transfer (DropTransfer) or
// delegates to the wrapped backend's transfer logic. The runtime's
// per-object transfer mux calls it only for objects routed to this
// wrapper, so a fault composed with routing hits exactly its own route.
func (f *faulty) lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time {
	if f.faults.DropTransfer {
		return t // new owner computes on a stale replica / stale cache
	}
	if lt, ok := f.Backend.(lockTransferrer); ok {
		return lt.lockTransfer(rt, o, from, to, t)
	}
	return t
}

// unwrap exposes the decorated backend so the runtime resolves the
// object's effective protocol (e.g. the recorder's spm staging detection)
// through the fault wrapper.
func (f *faulty) unwrap() Backend { return f.Backend }

// CopyRange forwards the optional block-copy capability of the wrapped
// backend: faults disable protocol steps (flushes, transfers), never data
// movement, so ranged operations pass through unchanged. (ReadRange and
// WriteRange are promoted from the embedded Backend for the same reason.)
func (f *faulty) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	if rc, ok := f.Backend.(rangeCopier); ok {
		return rc.CopyRange(c, dst, dstOff, src, srcOff, words, wantVals)
	}
	return nil, false
}

func (f *faulty) Name() string { return f.Backend.Name() + "-faulty" }
