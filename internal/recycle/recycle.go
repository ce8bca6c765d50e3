// Package recycle keeps bounded free lists of the large buffers a
// simulated run allocates and drops: memory chunks, cache tag arrays and
// data slabs, timing wheels and recorded executions. A checked litmus
// pair builds a fresh system and recorder for each perturbed run, so
// without recycling those buffers are garbage a few milliseconds after
// they are made, and the collector, not the simulation, sets the rate.
//
// A run hands its buffers back when it is over (soc.System.Recycle,
// core.Execution.Recycle), and the constructors draw from the lists
// before allocating. Each owning package makes a drawn buffer exactly
// like a fresh one (zeroed, or copied from a seed), so whether a run
// drew recycled buffers never shows in what it computes.
//
// Every list is bounded by a constant of the package that owns it: a
// buffer offered to a full list is dropped for the garbage collector, so
// the lists hold at most a few hundred kilobytes whatever the run mix.
package recycle

import "sync"

// Lists is a set of bounded free lists of T, one per key; a key is
// typically the buffer's length, so that a buffer drawn under a key has
// the length the caller needs. It is safe for concurrent use.
type Lists[T any] struct {
	max  int
	mu   sync.Mutex
	free map[int][]T
}

// registry holds every Lists made by New, for the tests' drain.
var registry struct {
	mu  sync.Mutex
	all []interface {
		drain()
		held() int
	}
}

// New returns empty lists that keep at most max buffers per key.
func New[T any](max int) *Lists[T] {
	l := &Lists[T]{max: max, free: make(map[int][]T)}
	registry.mu.Lock()
	registry.all = append(registry.all, l)
	registry.mu.Unlock()
	return l
}

// Get takes a buffer put under key, reporting false when there is none.
// The buffer holds whatever its last user left in it.
func (l *Lists[T]) Get(key int) (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.free[key]
	n := len(s)
	if n == 0 {
		return x, false
	}
	x = s[n-1]
	var zero T
	s[n-1] = zero
	l.free[key] = s[:n-1]
	return x, true
}

// Put offers x under key. When key's list is full, x is dropped for the
// garbage collector. The caller must not use x afterwards, and must never
// put one buffer twice.
func (l *Lists[T]) Put(key int, x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.free[key]; len(s) < l.max {
		l.free[key] = append(s, x)
	}
}

// drain empties every list.
func (l *Lists[T]) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.free)
}

// held counts the buffers on every list.
func (l *Lists[T]) held() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.free {
		n += len(s)
	}
	return n
}
