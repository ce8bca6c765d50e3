package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// heapQueue is the reference specification of the kernel's dispatch order:
// a plain binary heap of pending events ordered by (at, seq). The timing
// wheel must be indistinguishable from it through every queue operation.
type heapQueue []*event

func (h heapQueue) Len() int { return len(h) }
func (h heapQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h heapQueue) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *heapQueue) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *heapQueue) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (h *heapQueue) push(e *event) { heap.Push(h, e) }

func (h *heapQueue) pop() *event {
	if len(*h) == 0 {
		return nil
	}
	return heap.Pop(h).(*event)
}

func (h *heapQueue) nextAt() (Time, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0].at, true
}

func (h *heapQueue) len() int { return len(*h) }

// eventQueue is the set of operations the kernel performs on its queue.
type eventQueue interface {
	push(e *event)
	pop() *event // nil when empty
	nextAt() (Time, bool)
	len() int
}

// wheelLevel is the wheel level an event at time at files into when the
// wheel's floor is curr: the level of the highest bit where the two differ.
// wheelLevels stands for the overflow list.
func wheelLevel(at, curr Time) int {
	n := bits.Len64(uint64(at ^ curr))
	if n == 0 {
		return 0
	}
	return min((n-1)/wheelBits, wheelLevels)
}

// TestWheelMatchesHeapOrder is the queue-interface differential: a seeded
// stream of push, pop and nextAt operations goes to the timing wheel and to
// the heap oracle, and every result must agree — the same event (by
// identity) from each pop, the same earliest time from each peek, the same
// length after every step. The stream also replays the kernel's WaitUntil
// fast path: the clock jumps forward without a pop whenever skipTo finds
// nothing due by the target time, and every later push lands at or
// after the new clock. Pushes span every wheel level and the 2^48-cycle
// overflow.
func TestWheelMatchesHeapOrder(t *testing.T) {
	const opsPerSeed = 5000
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		wheel, ref := &wheelQueue{}, &heapQueue{}
		k := &Kernel{wheel: wheel}
		var now Time
		var seq uint64
		var levels [wheelLevels + 1]int
		overflowed := map[*event]bool{}
		var pushes, pops, overflowPops, peeks, fast int
		push := func(at Time) {
			seq++
			e := &event{at: at, seq: seq}
			lvl := wheelLevel(at, wheel.curr)
			levels[lvl]++
			overflowed[e] = lvl == wheelLevels
			wheel.push(e)
			ref.push(e)
			pushes++
		}
		delay := func() Time {
			switch lvl := rng.IntN(wheelLevels + 2); {
			case lvl == 0:
				return 0 // same cycle
			case lvl <= wheelLevels:
				return Time(rng.Uint64N(1 << (wheelBits * lvl)))
			default:
				return 1<<48 + Time(rng.Uint64N(1<<48)) // overflow
			}
		}
		for op := 0; op < opsPerSeed; op++ {
			// Alternate filling and draining phases so the queue
			// empties (and the overflow list is rebased) mid-stream.
			pushShare := 45
			if op/250%2 == 1 {
				pushShare = 15
			}
			switch r := rng.IntN(100); {
			case r < pushShare:
				push(now + delay())
			case r < 75:
				got, want := wheel.pop(), ref.pop()
				if got != want {
					t.Fatalf("seed %d op %d: pop: wheel %v, heap %v", seed, op, got, want)
				}
				if want != nil {
					now = want.at
					if overflowed[want] {
						overflowPops++
					}
				}
				pops++
			case r < 85:
				gotAt, gotOK := wheel.nextAt()
				wantAt, wantOK := ref.nextAt()
				if gotAt != wantAt || gotOK != wantOK {
					t.Fatalf("seed %d op %d: nextAt: wheel (%d, %v), heap (%d, %v)",
						seed, op, gotAt, gotOK, wantAt, wantOK)
				}
				peeks++
			default:
				// WaitUntil(target): advance in place when nothing is
				// due by target, otherwise schedule the wake-up.
				target := now + delay()
				at, ok := ref.nextAt()
				due := ok && at <= target
				if skipped := k.skipTo(target); skipped == due {
					t.Fatalf("seed %d op %d: skipTo(%d) = %v, but heap says due = %v", seed, op, target, skipped, due)
				}
				if due {
					push(target)
				} else {
					now = target
					fast++
				}
			}
			if wheel.len() != ref.len() {
				t.Fatalf("seed %d op %d: len: wheel %d, heap %d", seed, op, wheel.len(), ref.len())
			}
		}
		for ref.len() > 0 {
			if got, want := wheel.pop(), ref.pop(); got != want {
				t.Fatalf("seed %d drain: wheel %v, heap %v", seed, got, want)
			}
		}
		if e := wheel.pop(); e != nil {
			t.Fatalf("seed %d: wheel pops %v after the heap drained", seed, e)
		}
		for lvl, n := range levels {
			if n == 0 {
				t.Errorf("seed %d: no push filed at level %d (%d = overflow)", seed, lvl, wheelLevels)
			}
		}
		if pops == 0 || overflowPops == 0 || peeks == 0 || fast == 0 {
			t.Errorf("seed %d: stream missed an operation: %d pushes, %d pops (%d from overflow), %d peeks, %d fast-path advances",
				seed, pushes, pops, overflowPops, peeks, fast)
		}
		t.Logf("seed %d: %d ops: %d pushes (per level %v), %d pops (%d from overflow), %d peeks, %d fast-path advances",
			seed, opsPerSeed, pushes, levels, pops, overflowPops, peeks, fast)
	}
}

// TestWheelSameTimestampOrder: events scheduled for one cycle must run in
// scheduling order, including events filed into an already-cascaded slot
// and events scheduled from within that cycle.
func TestWheelSameTimestampOrder(t *testing.T) {
	k := New()
	var order []int
	at := Time(1000)
	for i := 0; i < 10; i++ {
		i := i
		k.ScheduleAt(at, func() { order = append(order, i) })
	}
	// A later time first, then more events back at `at` — the wheel must
	// keep them behind the earlier ones.
	k.ScheduleAt(at+5000, func() { order = append(order, 100) })
	for i := 10; i < 20; i++ {
		i := i
		k.ScheduleAt(at, func() {
			order = append(order, i)
			if i == 10 {
				// Scheduled mid-cycle: runs after everything already
				// filed for this cycle.
				k.ScheduleAt(at, func() { order = append(order, 50) })
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 50, 100}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, order, want)
		}
	}
}

// TestWheelMaxTime: the watchdog must fire on the first event strictly past
// MaxTime, and events exactly at MaxTime must still run.
func TestWheelMaxTime(t *testing.T) {
	k := New()
	k.MaxTime = 100
	ran := 0
	k.ScheduleAt(100, func() { ran++ })
	if err := k.Run(); err != nil {
		t.Fatalf("event at MaxTime aborted: %v", err)
	}
	if ran != 1 {
		t.Fatal("event at MaxTime did not run")
	}
	k2 := New()
	k2.MaxTime = 100
	k2.ScheduleAt(101, func() { t.Fatal("event past MaxTime ran") })
	if err := k2.Run(); err == nil {
		t.Fatal("watchdog did not fire past MaxTime")
	}
}

// TestWheelMaxTimeFastPath: a process sleeping exactly to MaxTime completes;
// one cycle further aborts. Exercises the WaitUntil fast path against the
// wheel's nextAt.
func TestWheelMaxTimeFastPath(t *testing.T) {
	k := New()
	k.MaxTime = 500
	k.Spawn("sleeper", func(p *Proc) { p.Wait(500) })
	if err := k.Run(); err != nil {
		t.Fatalf("sleep to MaxTime failed: %v", err)
	}
	if k.Now() != 500 {
		t.Fatalf("now = %d, want 500", k.Now())
	}
	k2 := New()
	k2.MaxTime = 500
	k2.Spawn("sleeper", func(p *Proc) { p.Wait(501) })
	if err := k2.Run(); err == nil {
		t.Fatal("sleep past MaxTime not caught")
	}
}

// TestWheelOverflowHorizon: events beyond the wheel's 48-bit window must
// survive in the overflow list and come back in correct order.
func TestWheelOverflowHorizon(t *testing.T) {
	k := New()
	var order []Time
	far := Time(1) << 50
	times := []Time{far + 3, 10, far, far + 3, 1 << 49, 2}
	for _, at := range times {
		at := at
		k.ScheduleAt(at, func() { order = append(order, at) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 10, 1 << 49, far, far + 3, far + 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("overflow order: got %v, want %v", order, want)
		}
	}
}

// TestWheelPeekDoesNotLoseEvents: nextAt must not advance the wheel. A
// process waits far ahead (peeking the queue on the way), then an event
// scheduled back near the present must still be dispatched.
func TestWheelPeekDoesNotLoseEvents(t *testing.T) {
	k := New()
	hit := false
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(1 << 20) // fast path peeks nextAt
		k.ScheduleAt(k.Now()+5, func() { hit = true })
		p.Wait(100000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("event scheduled after a long fast-path wait was lost")
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	for _, impl := range []struct {
		name string
		q    func() eventQueue
	}{
		{"heap", func() eventQueue { return &heapQueue{} }},
		{"wheel", func() eventQueue { return &wheelQueue{} }},
	} {
		for _, population := range []int{32, 1024} {
			b.Run(fmt.Sprintf("%s/%d", impl.name, population), func(b *testing.B) {
				q := impl.q()
				var seq uint64
				for i := 0; i < population; i++ {
					seq++
					q.push(&event{at: Time(i * 7), seq: seq})
				}
				rng := uint32(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := q.pop()
					rng ^= rng << 13
					rng ^= rng >> 17
					rng ^= rng << 5
					e.at += Time(rng % 1024)
					seq++
					e.seq = seq
					q.push(e)
				}
			})
		}
	}
}
