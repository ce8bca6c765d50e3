package core

import (
	"math/rand"
	"slices"
	"testing"
)

// drainExecutions empties the free list of recycled executions.
func drainExecutions() {
	for {
		if _, ok := freeExecutions.Get(0); !ok {
			return
		}
	}
}

// TestRecycledExecutionMatchesFresh: an execution built on a recycled
// one's buffers is the execution a fresh one builds from the same ops:
// same ops, same in- and out-edges in the same order, same query answers
// and pattern indexes. The recycled execution had more processes (one
// with a sparse ID), more locations and more ops, so every list it
// leaves behind is longer and dirtier than the new one needs.
func TestRecycledExecutionMatchesFresh(t *testing.T) {
	const procs = 3
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		locs := 1 + rng.Intn(3)
		ops := make([]randOp, rng.Intn(30))
		for i := range ops {
			ops[i] = newRandOp(rng, procs, locs)
		}
		build := func() *Execution {
			e := NewExecution()
			for v := 0; v < locs; v++ {
				e.AddLoc("v")
			}
			for _, o := range ops {
				o.exec(e)
			}
			return e
		}
		drainExecutions()
		fresh := build()

		dirty := NewExecution()
		for v := 0; v < 5; v++ {
			dirty.AddLoc("w")
		}
		for i := 0; i < 60; i++ {
			o := newRandOp(rng, 5, 5)
			if i%7 == 0 {
				o.p = 1 << 20
			}
			o.exec(dirty)
		}
		dirty.Recycle()
		got := build()
		if cap(got.ops) == 0 || &got.ops[:1][0] == &fresh.ops[:1][0] {
			t.Fatal("the second build did not draw the recycled execution's buffers")
		}

		if d := snap(got, procs).diff(snap(fresh, procs)); d != "" {
			t.Fatalf("trial %d: recycled execution: %s", trial, d)
		}
		// A reused edge list is empty where a fresh one is nil.
		if !slices.EqualFunc(got.in, fresh.in, slices.Equal) {
			t.Fatalf("trial %d: in-edges %v, want %v", trial, got.in, fresh.in)
		}
	}
}
