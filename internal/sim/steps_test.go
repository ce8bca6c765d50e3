package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// chainProgram is a random simulation: competing processes, each making a
// series of calls, each call a chain of steps. Every step and every event
// reads and updates one shared word and logs it, so any change in the
// dispatch order shows in the log.
type chainProgram struct {
	procs   []chainProc
	maxTime Time
}

type chainProc struct {
	start Time
	calls [][]chainStep
}

// chainStep is one step: after its action it waits delay cycles plus the
// shared word mod spread (0 ends the call), and it may schedule a closure
// event evDelay cycles ahead (same-cycle when 0).
type chainStep struct {
	delay, spread Time
	event         bool
	evDelay       Time
}

func genChainProgram(rng *rand.Rand) chainProgram {
	var prog chainProgram
	if rng.Intn(4) == 0 {
		prog.maxTime = Time(20 + rng.Intn(60))
	}
	for range 1 + rng.Intn(4) {
		pr := chainProc{start: Time(rng.Intn(4))}
		for range 1 + rng.Intn(4) {
			steps := make([]chainStep, 1+rng.Intn(6))
			for i := range steps {
				steps[i] = chainStep{
					delay:   Time(rng.Intn(4)),
					spread:  Time(rng.Intn(3)),
					event:   rng.Intn(3) == 0,
					evDelay: Time(rng.Intn(3)),
				}
			}
			pr.calls = append(pr.calls, steps)
		}
		prog.procs = append(prog.procs, pr)
	}
	return prog
}

// runChainProgram runs prog, driving each call with Steps (chain) or with
// the equivalent WaitUntil loop, and returns the dispatch log, the
// kernel's counters and Run's result.
func runChainProgram(prog chainProgram, chain bool) (string, Counters, error) {
	k := New()
	k.MaxTime = prog.maxTime
	var log strings.Builder
	var shared, steps uint64
	for pi, pr := range prog.procs {
		k.ScheduleAt(pr.start, func() {
			k.Spawn(fmt.Sprintf("p%d", pi), func(p *Proc) {
				for ci, call := range pr.calls {
					i := 0
					step := func() (Time, bool) {
						steps++
						shared = shared*31 + uint64(pi*100+ci*10+i)
						fmt.Fprintf(&log, "p%d.%d.%d@%d:%d ", pi, ci, i, k.Now(), shared%1000)
						if i == len(call) {
							return 0, false
						}
						st := call[i]
						i++
						if st.event {
							id := steps
							k.ScheduleAt(k.Now()+st.evDelay, func() {
								shared = shared*17 + id
								fmt.Fprintf(&log, "e%d@%d:%d ", id, k.Now(), shared%1000)
							})
						}
						return k.Now() + st.delay + Time(shared)%(st.spread+1), true
					}
					if chain {
						p.Steps(step)
					} else {
						for {
							t, more := step()
							if !more {
								break
							}
							p.WaitUntil(t)
						}
					}
					fmt.Fprintf(&log, "p%d.%d.ret@%d ", pi, ci, k.Now())
				}
			})
		})
	}
	err := k.Run()
	return log.String(), k.Counters, err
}

// TestStepsMatchesWaitUntilLoop is the chain primitive's differential
// test: random programs of competing processes and same-cycle closure
// events produce the identical dispatch log, outcome and event count
// whether their calls run as step chains or as WaitUntil loops, including
// programs cut by MaxTime in the middle of a chain. Chains never
// resume more often than the loops do.
func TestStepsMatchesWaitUntilLoop(t *testing.T) {
	var chained uint64
	for seed := int64(0); seed < 400; seed++ {
		prog := genChainProgram(rand.New(rand.NewSource(seed)))
		wantLog, wantC, wantErr := runChainProgram(prog, false)
		gotLog, gotC, gotErr := runChainProgram(prog, true)
		if gotLog != wantLog {
			t.Fatalf("seed %d: dispatch logs differ\nloop:  %s\nchain: %s", seed, wantLog, gotLog)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: Run = %v, want %v", seed, gotErr, wantErr)
		}
		if gotC.Events != wantC.Events || gotC.Resumes > wantC.Resumes {
			t.Fatalf("seed %d: chain counters %+v against loop %+v", seed, gotC, wantC)
		}
		if wantC.ChainSteps != 0 {
			t.Fatalf("seed %d: the loop ran %d chain steps", seed, wantC.ChainSteps)
		}
		chained += gotC.ChainSteps
	}
	if chained == 0 {
		t.Fatal("no chain step ever ran as an event: the test exercises only the fast path")
	}
}

// TestStepsCutMidChain pins how a run ends inside a chain: the watchdog
// fires when the chain's next wait passes MaxTime, and no further step
// runs.
func TestStepsCutMidChain(t *testing.T) {
	t.Run("maxtime", func(t *testing.T) {
		k := New()
		k.MaxTime = 25
		ran, resumed := 0, false
		k.Spawn("chain", func(p *Proc) {
			p.Steps(func() (Time, bool) {
				ran++
				k.ScheduleAt(k.Now()+1, func() {}) // force every wait to yield
				return p.Now() + 10, ran < 5
			})
			resumed = true
		})
		if err := k.Run(); err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Fatalf("Run = %v, want the watchdog", err)
		}
		if ran != 3 || resumed {
			t.Fatalf("ran %d steps (resumed %v), want 3 and no resume", ran, resumed)
		}
	})
}

// TestStepsPanicLeavesRun: a step that panics while running as a kernel
// event leaves Run with the step's own panic value.
func TestStepsPanicLeavesRun(t *testing.T) {
	k := New()
	k.Spawn("chain", func(p *Proc) {
		n := 0
		p.Steps(func() (Time, bool) {
			if n++; n == 2 {
				panic("step boom")
			}
			k.ScheduleAt(k.Now()+1, func() {})
			return p.Now() + 1, true
		})
	})
	defer func() {
		if r := recover(); r != "step boom" {
			t.Fatalf("recovered %v, want the step's panic", r)
		}
		if k.Counters.ChainSteps != 1 {
			t.Fatalf("ChainSteps = %d: the panicking step did not run as an event", k.Counters.ChainSteps)
		}
	}()
	_ = k.Run()
	t.Fatal("Run returned despite a panicking step")
}

func TestStepsMisusePanics(t *testing.T) {
	expectPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	t.Run("finished", func(t *testing.T) {
		k := New()
		p := k.Spawn("done", func(*Proc) {})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		expectPanic(t, "Steps on a finished proc", func() {
			p.Steps(func() (Time, bool) { return 0, false })
		})
	})
	for _, asEvent := range []bool{false, true} {
		t.Run(fmt.Sprintf("past/event=%v", asEvent), func(t *testing.T) {
			k := New()
			k.Spawn("p", func(p *Proc) {
				p.Wait(10)
				n := 0
				step := func() (Time, bool) {
					if n++; n == 1 && asEvent {
						k.ScheduleAt(k.Now()+1, func() {})
						return p.Now() + 1, true
					}
					return p.Now() - 5, true
				}
				if !asEvent {
					expectPanic(t, "a step in the past", func() { p.Steps(step) })
					return
				}
				p.Steps(step)
			})
			if !asEvent {
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				return
			}
			expectPanic(t, "a step in the past run as an event", func() { _ = k.Run() })
		})
	}
}
