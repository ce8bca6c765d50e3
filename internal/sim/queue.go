package sim

import (
	"fmt"
	"math/bits"
)

// Timing-wheel geometry: wheelLevels levels of wheelSlots slots. A level-0
// slot covers exactly one cycle; a level-l slot covers wheelSlots^l cycles.
// Together the levels span a 48-bit horizon above the current time; later
// events overflow to a side list and are folded back in when reached
// (simulated time advancing 2^48 cycles between events does not happen in
// practice, so the overflow path is a correctness backstop, not a hot path).
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 8
)

// wheelQueue is a hierarchical timing wheel. An event at time t is filed at
// the lowest level whose current window contains t — concretely, the lowest
// l where t and curr share the prefix above bit 6·(l+1) — in the slot
// indexed by bits [6·l, 6·(l+1)) of t. Prefix placement (rather than
// delta-from-now placement) is what preserves the (time, seq) dispatch
// order: a slot's events are redistributed to lower levels exactly when
// curr advances into the slot's window, which is before any later push can
// file directly into that window, so every per-slot list stays
// seq-ascending by construction and a plain append suffices.
//
// Only pop advances curr; peeking must not, because a push below an
// optimistically advanced curr would land in a slot the wheel never
// rescans. The kernel's WaitUntil fast path advances the clock without
// touching the wheel, which is safe: curr is a lower bound, not the clock.
//
// The dispatch order is specified by a plain binary heap ordered by
// (at, seq); queue_test.go keeps that heap as the oracle the wheel is
// checked against operation by operation.
type wheelQueue struct {
	curr Time // lower bound on every queued event's time
	n    int

	head [wheelLevels][wheelSlots]*event
	tail [wheelLevels][wheelSlots]*event
	occ  [wheelLevels]uint64 // per-slot occupancy bitmaps, one word per level

	// ovf holds events beyond the top level's window, in push (= seq)
	// order.
	ovf []*event

	// Cached earliest pending time for nextAt; pop invalidates, push
	// maintains.
	minAt    Time
	minValid bool
}

func (q *wheelQueue) len() int { return q.n }

func (q *wheelQueue) push(e *event) {
	if e.at < q.curr {
		panic(fmt.Sprintf("sim: wheel push at %d below floor %d", e.at, q.curr))
	}
	q.n++
	if q.minValid && e.at < q.minAt {
		q.minAt = e.at
	}
	q.place(e)
}

// place files e relative to curr. It is shared by push, cascade and the
// overflow rebase; it must never file an event at level l >= 1 into the
// slot containing curr (see the type comment), which holds because sharing
// the level-l slot index implies sharing the level-(l-1) window, so the
// placement loop would have stopped earlier.
func (q *wheelQueue) place(e *event) {
	lvl := 0
	for lvl < wheelLevels && (e.at>>(wheelBits*(lvl+1))) != (q.curr>>(wheelBits*(lvl+1))) {
		lvl++
	}
	if lvl == wheelLevels {
		e.next = nil
		q.ovf = append(q.ovf, e)
		return
	}
	slot := int(e.at>>(wheelBits*uint(lvl))) & wheelMask
	e.next = nil
	if q.tail[lvl][slot] == nil {
		q.head[lvl][slot] = e
		q.occ[lvl] |= 1 << uint(slot)
	} else {
		q.tail[lvl][slot].next = e
	}
	q.tail[lvl][slot] = e
}

// scan returns the first occupied slot index >= from at the given level.
func (q *wheelQueue) scan(lvl, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := q.occ[lvl] &^ (1<<uint(from) - 1)
	if word == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(word), true
}

func (q *wheelQueue) pop() *event {
	if q.n == 0 {
		return nil
	}
	for {
		// All level-0 events share curr's window, and slots below
		// curr's index are in the past (already drained), so a scan
		// from curr's index finds the earliest.
		if slot, ok := q.scan(0, int(q.curr)&wheelMask); ok {
			e := q.head[0][slot]
			q.head[0][slot] = e.next
			if e.next == nil {
				q.tail[0][slot] = nil
				q.occ[0] &^= 1 << uint(slot)
				q.minValid = false
			} else {
				// A level-0 slot holds exactly one time, so the
				// remaining events share e.at: the min is known
				// without a rescan (this keeps the WaitUntil fast
				// path's nextAt O(1) in the common case).
				q.minAt, q.minValid = e.at, true
			}
			e.next = nil
			q.curr = e.at
			q.n--
			return e
		}
		q.advance()
	}
}

// advance moves curr forward to the next populated window: it finds the
// lowest level with an occupied slot ahead of curr, steps curr to that
// slot's window start, and redistributes the slot's events into lower
// levels (where the caller's level-0 rescan picks them up). With the whole
// wheel empty it rebases onto the overflow list.
func (q *wheelQueue) advance() {
	for lvl := 1; lvl < wheelLevels; lvl++ {
		// The slot containing curr is always already cascaded (place
		// never files into it), so scan strictly after it. Any
		// level-lvl event precedes every level-(lvl+1) event: the
		// former share curr's level-(lvl+1) window, the latter lie
		// beyond it.
		from := int(q.curr>>(wheelBits*uint(lvl)))&wheelMask + 1
		slot, ok := q.scan(lvl, from)
		if !ok {
			continue
		}
		shift := uint(wheelBits * lvl)
		q.curr = q.curr>>(shift+wheelBits)<<(shift+wheelBits) | Time(slot)<<shift
		e := q.head[lvl][slot]
		q.head[lvl][slot] = nil
		q.tail[lvl][slot] = nil
		q.occ[lvl] &^= 1 << uint(slot)
		for e != nil {
			next := e.next
			q.place(e)
			e = next
		}
		return
	}
	// The wheel proper is drained; everything pending sits past the top
	// level's window. Rebase the wheel at the overflow's earliest time
	// and refile (overflow events all exceed every in-wheel time, and
	// refiling in list order preserves per-slot seq order).
	if len(q.ovf) == 0 {
		panic("sim: timing wheel lost events")
	}
	min := q.ovf[0].at
	for _, e := range q.ovf[1:] {
		if e.at < min {
			min = e.at
		}
	}
	q.curr = min
	old := q.ovf
	q.ovf = nil
	for i, e := range old {
		old[i] = nil
		q.place(e)
	}
}

func (q *wheelQueue) nextAt() (Time, bool) {
	if q.minValid {
		return q.minAt, true
	}
	return q.nextAtSlow()
}

// nextAtSlow recomputes and caches the earliest pending time. It mirrors
// pop's search order, but without cascading and — crucially — without
// advancing curr.
func (q *wheelQueue) nextAtSlow() (Time, bool) {
	if q.n == 0 {
		return 0, false
	}
	if slot, ok := q.scan(0, int(q.curr)&wheelMask); ok {
		// A level-0 slot holds exactly one time: curr's window plus
		// the slot index.
		q.minAt = q.curr>>wheelBits<<wheelBits | Time(slot)
		q.minValid = true
		return q.minAt, true
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		from := int(q.curr>>(wheelBits*uint(lvl)))&wheelMask + 1
		slot, ok := q.scan(lvl, from)
		if !ok {
			continue
		}
		min := Forever
		for e := q.head[lvl][slot]; e != nil; e = e.next {
			if e.at < min {
				min = e.at
			}
		}
		q.minAt, q.minValid = min, true
		return min, true
	}
	min := Forever
	for _, e := range q.ovf {
		if e.at < min {
			min = e.at
		}
	}
	q.minAt, q.minValid = min, true
	return min, true
}
