package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.Schedule(10, func() { order = append(order, 2) })
	k.Schedule(5, func() { order = append(order, 1) })
	k.Schedule(10, func() { order = append(order, 3) }) // same time: schedule order
	k.Schedule(0, func() { order = append(order, 0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 10 {
		t.Fatalf("final time = %d, want 10", k.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	k := New()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		k.ScheduleAt(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcWait(t *testing.T) {
	k := New()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, fmt.Sprintf("a0@%d", p.Now()))
		p.Wait(3)
		trace = append(trace, fmt.Sprintf("a1@%d", p.Now()))
		p.Wait(4)
		trace = append(trace, fmt.Sprintf("a2@%d", p.Now()))
	})
	k.Spawn("b", func(p *Proc) {
		p.Wait(5)
		trace = append(trace, fmt.Sprintf("b0@%d", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(trace, " ")
	want := "a0@0 a1@3 b0@5 a2@7"
	if got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

func TestWaitZeroRunsPendingEventsFirst(t *testing.T) {
	k := New()
	var trace []string
	k.Spawn("p", func(p *Proc) {
		k.Schedule(0, func() { trace = append(trace, "event") })
		p.Wait(0)
		trace = append(trace, "after")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(trace, " "); got != "event after" {
		t.Fatalf("trace = %q, want %q", got, "event after")
	}
}

func TestParkUnpark(t *testing.T) {
	k := New()
	var got any
	var waiter *Proc
	waiter = k.Spawn("waiter", func(p *Proc) {
		got = p.Park()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Wait(42)
		waiter.Unpark("hello")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("Park returned %v, want hello", got)
	}
	if k.Now() != 42 {
		t.Fatalf("final time %d, want 42", k.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error should name the blocked proc: %v", err)
	}
}

func TestWatchdog(t *testing.T) {
	k := New()
	k.MaxTime = 100
	k.Spawn("spinner", func(p *Proc) {
		for {
			p.Wait(10)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want watchdog", err)
	}
}

// TestMaxTimeBoundary is the MaxTime mirror of PR 1's MaxStates off-by-one
// regression test: a run whose last event lands exactly at MaxTime must
// complete successfully; only events strictly past the budget abort.
func TestMaxTimeBoundary(t *testing.T) {
	k := New()
	k.MaxTime = 100
	ran := false
	k.ScheduleAt(100, func() { ran = true })
	if err := k.Run(); err != nil {
		t.Fatalf("event at exactly MaxTime must complete, got: %v", err)
	}
	if !ran {
		t.Fatal("event at MaxTime did not run")
	}
	if k.Now() != 100 {
		t.Fatalf("final time %d, want 100", k.Now())
	}

	k = New()
	k.MaxTime = 100
	k.ScheduleAt(101, func() { t.Error("event past MaxTime must not run") })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want watchdog for event past MaxTime", err)
	}
}

// TestMaxTimeBoundaryProcess exercises the boundary through a process whose
// final wait lands exactly on the budget.
func TestMaxTimeBoundaryProcess(t *testing.T) {
	k := New()
	k.MaxTime = 50
	done := false
	k.Spawn("edge", func(p *Proc) {
		p.Wait(25)
		p.Wait(25) // finishes exactly at MaxTime
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatalf("process finishing at MaxTime must complete, got: %v", err)
	}
	if !done || k.Now() != 50 {
		t.Fatalf("done=%v now=%d, want true,50", done, k.Now())
	}
}

func TestStop(t *testing.T) {
	k := New()
	n := 0
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			n++
			if n == 3 {
				k.Stop()
			}
			p.Wait(1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ran %d iterations, want 3", n)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := New()
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Wait(7)
		k.Spawn("child", func(c *Proc) {
			childTime = c.Now()
		})
		p.Wait(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 7 {
		t.Fatalf("child started at %d, want 7", childTime)
	}
}

func TestResourceFIFO(t *testing.T) {
	k := New()
	bus := NewResource(k, "bus")
	type rec struct {
		who    string
		queued Time
		done   Time
	}
	var recs []rec
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("p%d", i)
		k.Spawn(name, func(p *Proc) {
			q := bus.Use(p, 10)
			recs = append(recs, rec{name, q, p.Now()})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// All requested at cycle 0; FIFO in spawn order.
	want := []rec{{"p0", 0, 10}, {"p1", 10, 20}, {"p2", 20, 30}}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("recs = %v, want %v", recs, want)
		}
	}
	if bus.BusyTime != 30 || bus.WaitTime != 30 || bus.Grants != 3 {
		t.Fatalf("stats: busy=%d wait=%d grants=%d", bus.BusyTime, bus.WaitTime, bus.Grants)
	}
}

func TestResourceIdleGap(t *testing.T) {
	k := New()
	bus := NewResource(k, "bus")
	k.Spawn("early", func(p *Proc) {
		bus.Use(p, 5)
	})
	k.Spawn("late", func(p *Proc) {
		p.Wait(100)
		q := bus.Use(p, 5)
		if q != 0 {
			t.Errorf("late requester queued %d cycles, want 0", q)
		}
		if p.Now() != 105 {
			t.Errorf("late done at %d, want 105", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceReserveWithoutProc(t *testing.T) {
	k := New()
	bus := NewResource(k, "bus")
	start, end := bus.Reserve(50, 10)
	if start != 50 || end != 60 {
		t.Fatalf("Reserve = (%d,%d), want (50,60)", start, end)
	}
	start, end = bus.Reserve(50, 10)
	if start != 60 || end != 70 {
		t.Fatalf("second Reserve = (%d,%d), want (60,70)", start, end)
	}
}

// TestDeterminism runs an irregular mix of processes twice and requires
// identical traces.
func TestDeterminism(t *testing.T) {
	run := func() string {
		k := New()
		bus := NewResource(k, "bus")
		var sb strings.Builder
		for i := 0; i < 8; i++ {
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				seed := uint64(p.ID()*2654435761 + 12345)
				for j := 0; j < 20; j++ {
					seed = seed*6364136223846793005 + 1442695040888963407
					p.Wait(Time(seed % 7))
					bus.Use(p, Time(1+seed%5))
					fmt.Fprintf(&sb, "%s@%d;", p.Name(), p.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("two identical runs produced different traces")
	}
}

// Property: for any request sequence, resource reservations never overlap
// and are granted in nondecreasing start order.
func TestResourceNoOverlapProperty(t *testing.T) {
	prop := func(durs []uint8, gaps []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		k := New()
		r := NewResource(k, "r")
		type slot struct{ s, e Time }
		var slots []slot
		t0 := Time(0)
		for i, d := range durs {
			g := Time(0)
			if i < len(gaps) {
				g = Time(gaps[i] % 16)
			}
			t0 += g
			s, e := r.Reserve(t0, Time(d%16)+1)
			slots = append(slots, slot{s, e})
		}
		for i := 1; i < len(slots); i++ {
			if slots[i].s < slots[i-1].e {
				return false // overlap
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: N processes each waiting a pseudo-random series of delays finish
// at exactly the sum of their delays (time advances exactly as requested).
func TestWaitSumProperty(t *testing.T) {
	prop := func(delays []uint8) bool {
		k := New()
		var finish Time
		k.Spawn("p", func(p *Proc) {
			for _, d := range delays {
				p.Wait(Time(d))
			}
			finish = p.Now()
		})
		if err := k.Run(); err != nil {
			return false
		}
		var sum Time
		for _, d := range delays {
			sum += Time(d)
		}
		return finish == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnparkPanics(t *testing.T) {
	k := New()
	var p *Proc
	p = k.Spawn("victim", func(pp *Proc) { pp.Wait(100) })
	k.Spawn("offender", func(q *Proc) {
		q.Wait(1)
		defer func() {
			if recover() == nil {
				t.Error("Unpark of non-parked proc did not panic")
			}
		}()
		p.Unpark(nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitInPastPanics(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("WaitUntil in the past did not panic")
			}
		}()
		p.Wait(10)
		p.WaitUntil(5)
	})
	_ = k.Run()
}

func TestProcAccessors(t *testing.T) {
	k := New()
	p := k.Spawn("alpha", func(p *Proc) {
		if p.Name() != "alpha" || p.ID() != 0 || p.Kernel() == nil {
			t.Error("accessors wrong")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("proc not done after Run")
	}
}

func BenchmarkKernelEvents(b *testing.B) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
