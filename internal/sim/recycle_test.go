package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestFailedRunStopsProcesses: a run that ends in a watchdog or deadlock
// error leaves no process goroutine behind, and a stopped process body
// runs no further simulation (only its deferred calls). A stopped
// coroutine has exited by the time stop returns, so the count is exact.
func TestFailedRunStopsProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k := New()
		k.MaxTime = 100
		var unwound, resumed int
		k.Spawn("spinner", func(p *Proc) {
			defer func() { unwound++ }()
			for {
				p.Wait(10)
			}
		})
		k.Spawn("parked", func(p *Proc) {
			defer func() { unwound++ }()
			p.Park()
			resumed++
		})
		k.Spawn("chain", func(p *Proc) {
			defer func() { unwound++ }()
			p.Steps(func() (Time, bool) { return p.Now() + 7, true })
			resumed++
		})
		if err := k.Run(); err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Fatalf("err = %v, want watchdog", err)
		}
		if unwound != 3 || resumed != 0 {
			t.Fatalf("watchdog: %d bodies unwound, %d resumed past a wait; want 3 and 0", unwound, resumed)
		}

		k = New()
		k.Spawn("a", func(p *Proc) { p.Park() })
		k.Spawn("b", func(p *Proc) {
			p.Wait(5)
			p.Park()
			resumed++
		})
		k.Spawn("done", func(p *Proc) { p.Wait(3) })
		if err := k.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") ||
			!strings.Contains(err.Error(), "a, b") {
			t.Fatalf("err = %v, want a deadlock naming a and b", err)
		}
		if resumed != 0 {
			t.Fatal("deadlock: a stopped body resumed past Park")
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after 100 failed runs, %d before", n, before)
	}
}

// TestPanickingRunStopsProcesses: when a process panics out of Run, the
// run's other processes are stopped too, so a caller that recovers the
// panic (a sweep cell, a pmcd job) keeps no goroutine of the run.
func TestPanickingRunStopsProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		k := New()
		k.Spawn("parked", func(p *Proc) { p.Park() })
		k.Spawn("waiting", func(p *Proc) { p.Wait(50) })
		k.Spawn("boom", func(p *Proc) {
			p.Wait(5)
			panic("boom")
		})
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the process's panic", r)
				}
			}()
			_ = k.Run()
		}()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after 20 panicking runs, %d before", n, before)
	}
}

// TestStoppedProcessPanicPropagates: a real panic raised while a stopped
// body unwinds (here by a deferred call) is not swallowed as a stop.
func TestStoppedProcessPanicPropagates(t *testing.T) {
	k := New()
	k.Spawn("stuck", func(p *Proc) {
		defer func() { panic("deferred boom") }()
		p.Park()
	})
	defer func() {
		if r := recover(); r != "deferred boom" {
			t.Fatalf("recovered %v, want the deferred call's panic", r)
		}
	}()
	_ = k.Run()
	t.Fatal("Run returned despite a panicking deferred call")
}

// TestRecycledKernel: a recycled kernel refuses to run, and the next
// kernel gets its wheel back at the zero value even when the failed run
// left events queued.
func TestRecycledKernel(t *testing.T) {
	k := New()
	k.MaxTime = 10
	k.ScheduleAt(5, func() {})
	k.ScheduleAt(1<<50, func() {}) // past the watchdog, still queued
	k.ScheduleAt(50, func() {})
	if err := k.Run(); err == nil {
		t.Fatal("want a watchdog error")
	}
	w := k.wheel
	k.Recycle()
	k.Recycle() // a second recycle must not list the wheel twice
	for _, use := range []struct {
		name string
		f    func()
	}{
		{"Run", func() { _ = k.Run() }},
		{"Spawn", func() { k.Spawn("late", func(*Proc) {}) }},
		{"ScheduleAt", func() { k.ScheduleAt(0, func() {}) }},
	} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "recycled") {
					t.Errorf("%s on a recycled kernel: recovered %v, want a recycled-kernel panic", use.name, r)
				}
			}()
			use.f()
		}()
	}
	k2, k3 := New(), New()
	if k2.wheel != w || k3.wheel == w {
		t.Fatal("the recycled wheel was not handed out exactly once")
	}
	if !reflect.ValueOf(*k2.wheel).IsZero() {
		t.Fatal("a recycled wheel is not at its zero value")
	}
	order := []Time{}
	for _, at := range []Time{9, 3, 3, 70} {
		k2.ScheduleAt(at, func() { order = append(order, at) })
	}
	if err := k2.Run(); err != nil || !reflect.DeepEqual(order, []Time{3, 3, 9, 70}) {
		t.Fatalf("run on a recycled wheel: order %v, err %v", order, err)
	}
}
