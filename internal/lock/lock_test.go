package lock

import (
	"testing"
	"testing/quick"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/sim"
)

func rig(tiles int) (*sim.Kernel, *noc.Network, *Distributed) {
	k := sim.New()
	locals := make([]*mem.Local, tiles)
	for i := range locals {
		locals[i] = &mem.Local{RAM: mem.NewRAM(0, 4096), Tile: i}
	}
	net, err := noc.New(k, noc.Config{Tiles: tiles}, locals)
	if err != nil {
		panic(err)
	}
	return k, net, NewDistributed(k, net)
}

// exercise runs n procs each looping iters times over a critical section
// guarded by lk, checking mutual exclusion, and returns the observed
// sequence of (tile, iteration) entries.
func exercise(t *testing.T, k *sim.Kernel, lk Locker, tiles, iters int) []int {
	t.Helper()
	inCS := -1
	var order []int
	for i := 0; i < tiles; i++ {
		tile := i
		k.Spawn("worker", func(p *sim.Proc) {
			for it := 0; it < iters; it++ {
				lk.Acquire(p, tile, 0)
				if inCS != -1 {
					t.Errorf("mutual exclusion violated: tile %d entered while %d inside", tile, inCS)
				}
				inCS = tile
				order = append(order, tile)
				p.Wait(10) // critical section work
				inCS = -1
				lk.Release(p, tile, 0)
				p.Wait(5)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestDistributedMutualExclusion(t *testing.T) {
	k, _, d := rig(8)
	order := exercise(t, k, d, 8, 5)
	if len(order) != 40 {
		t.Fatalf("expected 40 critical sections, got %d", len(order))
	}
	st := d.Stats()
	if st.Acquires != 40 {
		t.Fatalf("acquires = %d, want 40", st.Acquires)
	}
	if st.Handoffs == 0 {
		t.Fatal("expected cross-tile handoffs")
	}
}

func TestDistributedFIFOUnderContention(t *testing.T) {
	// All tiles request while tile 0 holds; grants must follow request
	// arrival order.
	k, _, d := rig(4)
	var order []int
	holderDone := false
	k.Spawn("holder", func(p *sim.Proc) {
		d.Acquire(p, 0, 0)
		p.Wait(1000) // hold long enough for all requests to arrive
		holderDone = true
		d.Release(p, 0, 0)
	})
	for i := 1; i < 4; i++ {
		tile := i
		k.Spawn("w", func(p *sim.Proc) {
			p.Wait(sim.Time(100 * tile)) // staggered, well within hold
			d.Acquire(p, tile, 0)
			if !holderDone {
				t.Error("granted before holder released")
			}
			order = append(order, tile)
			d.Release(p, tile, 0)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestAsymmetryLocalCheaperThanRemote(t *testing.T) {
	// Lock 0 homes on tile 0. An uncontended acquire from tile 0 must be
	// faster than from the most distant tile.
	measure := func(tile int) sim.Time {
		k, _, d := rig(8)
		var w sim.Time
		k.Spawn("p", func(p *sim.Proc) {
			w, _ = d.Acquire(p, tile, 0)
			d.Release(p, tile, 0)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	local, remote := measure(0), measure(4)
	if local >= remote {
		t.Fatalf("local acquire (%d cycles) not cheaper than remote (%d)", local, remote)
	}
}

func TestPrevHolderReported(t *testing.T) {
	k, _, d := rig(4)
	var first, second int
	k.Spawn("a", func(p *sim.Proc) {
		_, first = d.Acquire(p, 1, 5)
		p.Wait(10)
		d.Release(p, 1, 5)
	})
	k.Spawn("b", func(p *sim.Proc) {
		p.Wait(5)
		_, second = d.Acquire(p, 2, 5)
		d.Release(p, 2, 5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != NoHolder {
		t.Fatalf("first acquire prev = %d, want NoHolder", first)
	}
	if second != 1 {
		t.Fatalf("second acquire prev = %d, want 1", second)
	}
}

func TestTransferHookDelaysGrant(t *testing.T) {
	k, _, d := rig(4)
	var hookCalls int
	d.OnTransfer = func(lockID, from, to int, at sim.Time) sim.Time {
		hookCalls++
		if from == NoHolder {
			return at // first acquisition: nothing to move
		}
		return at + 500 // pretend the handoff moves a lot of data
	}
	var grantedAt sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		d.Acquire(p, 0, 0)
		p.Wait(10)
		d.Release(p, 0, 0)
	})
	k.Spawn("b", func(p *sim.Proc) {
		p.Wait(1)
		d.Acquire(p, 1, 0)
		grantedAt = p.Now()
		d.Release(p, 1, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if hookCalls != 2 {
		t.Fatalf("hook called %d times, want 2 (initial + handoff)", hookCalls)
	}
	if grantedAt < 500 {
		t.Fatalf("grant at %d did not wait for the 500-cycle transfer", grantedAt)
	}
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	k, _, d := rig(2)
	k.Spawn("a", func(p *sim.Proc) {
		d.Acquire(p, 0, 0)
		defer func() {
			if recover() == nil {
				t.Error("release by non-holder did not panic")
			}
		}()
		// Deliver a forged release from tile 1.
		d.handleRelease(0, 1)
	})
	_ = k.Run() // the panic is recovered inside the proc
}

func TestCentralizedMutualExclusion(t *testing.T) {
	k := sim.New()
	sdram := mem.NewSDRAM(0, 1<<16)
	c := NewCentralized(sdram, 0x100, 16)
	order := exercise(t, k, c, 6, 4)
	if len(order) != 24 {
		t.Fatalf("expected 24 critical sections, got %d", len(order))
	}
}

func TestCentralizedBusLoadExceedsDistributed(t *testing.T) {
	// The ablation's point: centralized spinning hammers the SDRAM bus.
	k := sim.New()
	sdram := mem.NewSDRAM(0, 1<<16)
	c := NewCentralized(sdram, 0x100, 4)
	exercise(t, k, c, 8, 3)
	if sdram.Grants() < 24*2 {
		t.Fatalf("expected heavy bus traffic from spinning, got %d grants", sdram.Grants())
	}
}

// Property: for any interleaving of hold times and request staggers, the
// distributed lock preserves mutual exclusion and loses no acquisition.
func TestDistributedLockProperty(t *testing.T) {
	prop := func(holds []uint8, staggers []uint8) bool {
		n := len(holds)
		if n == 0 {
			return true
		}
		if n > 12 {
			n = 12
		}
		k, _, d := rig(n)
		good := true
		inCS := false
		completed := 0
		for i := 0; i < n; i++ {
			tile := i
			hold := sim.Time(holds[i]%32) + 1
			stagger := sim.Time(0)
			if i < len(staggers) {
				stagger = sim.Time(staggers[i] % 64)
			}
			k.Spawn("w", func(p *sim.Proc) {
				p.Wait(stagger)
				d.Acquire(p, tile, 3)
				if inCS {
					good = false
				}
				inCS = true
				p.Wait(hold)
				inCS = false
				d.Release(p, tile, 3)
				completed++
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return good && completed == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
