package noc

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"pmc/internal/mem"
	"pmc/internal/sim"
)

func build(tiles int) (*sim.Kernel, *Network, []*mem.Local) {
	k := sim.New()
	locals := make([]*mem.Local, tiles)
	for i := range locals {
		locals[i] = &mem.Local{RAM: mem.NewRAM(0, 4096), Tile: i}
	}
	n, err := New(k, Config{Tiles: tiles}, locals)
	if err != nil {
		panic(err)
	}
	return k, n, locals
}

// word is v as the little-endian payload of a one-word remote write.
func word(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// hops is the total routing distance between two tiles.
func hops(n *Network, src, dst int) int {
	local, global := n.route(src, dst)
	return local + global
}

func TestHopsRing(t *testing.T) {
	_, n, _ := build(8)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {0, 5, 3}, {0, 7, 1}, {6, 2, 4}, {7, 0, 1},
	}
	for _, c := range cases {
		if got := hops(n, c.a, c.b); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPostWriteDelivers(t *testing.T) {
	k, n, locals := build(4)
	var at sim.Time
	k.Spawn("src", func(p *sim.Proc) {
		at = n.PostWriteDelayed(0, 2, 0x10, word(777), 0)
		// Posted: sender did not advance.
		if p.Now() != 0 {
			t.Errorf("sender stalled to %d", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// inj 2 + 2 hops * 2 = 6.
	if at != 6 {
		t.Fatalf("delivery at %d, want 6", at)
	}
	if locals[2].Read32(0x10) != 777 {
		t.Fatal("data not delivered")
	}
	if locals[0].Read32(0x10) == 777 {
		t.Fatal("data delivered to wrong tile")
	}
}

func TestDataSnapshotAtInjection(t *testing.T) {
	// The NoC must capture the payload at injection time, not delivery
	// time (the sender may overwrite its buffer immediately after).
	k, n, locals := build(2)
	buf := []byte{1, 2, 3, 4}
	k.Spawn("src", func(p *sim.Proc) {
		n.PostWriteDelayed(0, 1, 0, buf, 0)
		buf[0] = 99 // overwrite before delivery
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := locals[1].Read32(0); got != 0x04030201 {
		t.Fatalf("delivered %#x, want snapshot value 0x04030201", got)
	}
}

func TestFlowFIFOOrder(t *testing.T) {
	// Two writes to the same word on one flow: the second must land
	// after the first even though both have the same latency.
	k, n, locals := build(4)
	k.Spawn("src", func(p *sim.Proc) {
		n.PostWriteDelayed(0, 1, 0x20, word(1), 0)
		n.PostWriteDelayed(0, 1, 0x20, word(2), 0) // same cycle, same flow
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := locals[1].Read32(0x20); got != 2 {
		t.Fatalf("final value %d, want 2 (FIFO)", got)
	}
}

func TestDataThenControlOrdering(t *testing.T) {
	// The lock protocol depends on: write payload, then send grant on
	// the same flow; the receiver must see the payload when the grant
	// fires.
	k, n, locals := build(4)
	var sawAtGrant uint32
	k.Spawn("src", func(p *sim.Proc) {
		n.PostWriteDelayed(0, 3, 0x40, []byte{42, 0, 0, 0}, 0)
		n.PostControl(0, 3, 4, func() {
			sawAtGrant = locals[3].Read32(0x40)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAtGrant != 42 {
		t.Fatalf("grant observed %d, want 42 (data must precede control on a flow)", sawAtGrant)
	}
}

func TestLocalControlSkipsNetwork(t *testing.T) {
	k, n, _ := build(4)
	var at sim.Time
	fired := false
	k.Spawn("src", func(p *sim.Proc) {
		at = n.PostControl(2, 2, 4, func() { fired = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || at != 2 { // injection latency only
		t.Fatalf("local control at %d fired=%v, want 2,true", at, fired)
	}
}

func TestBlockLatencyScalesWithSize(t *testing.T) {
	_, n, _ := build(4)
	small := n.ControlLatency(0, 1, 4)
	big := n.ControlLatency(0, 1, 64)
	if big <= small {
		t.Fatalf("64B latency %d not greater than 4B latency %d", big, small)
	}
	// 64B at 4B/flit = 16 flits = 15 extra cycles over 1 flit.
	if big-small != 15 {
		t.Fatalf("serialization delta = %d, want 15", big-small)
	}
}

func TestRemoteWriteToSelfPanics(t *testing.T) {
	_, n, _ := build(2)
	defer func() {
		if recover() == nil {
			t.Error("PostWriteDelayed to own tile did not panic")
		}
	}()
	n.PostWriteDelayed(1, 1, 0, word(0), 0)
}

// Property: on any single flow, delivery times are strictly increasing in
// injection order regardless of message sizes.
func TestFlowFIFOProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		k, n, _ := build(6)
		ok := true
		k.Spawn("src", func(p *sim.Proc) {
			var prev sim.Time
			for i, s := range sizes {
				at := n.PostWriteDelayed(0, 5, 0, make([]byte, int(s%64)+1), 0)
				if i > 0 && at <= prev {
					ok = false
				}
				prev = at
				p.Wait(sim.Time(s % 3))
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats bytes equals the sum of payload sizes.
func TestStatsBytesProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		k, n, _ := build(3)
		var want uint64
		k.Spawn("src", func(p *sim.Proc) {
			for _, s := range sizes {
				sz := int(s%32) + 1
				want += uint64(sz)
				n.PostWriteDelayed(0, 1, 0, make([]byte, sz), 0)
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return n.Stats().Bytes == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHopsMesh(t *testing.T) {
	k := sim.New()
	locals := make([]*mem.Local, 16)
	for i := range locals {
		locals[i] = &mem.Local{RAM: mem.NewRAM(0, 1024), Tile: i}
	}
	n, err := New(k, Config{Tiles: 16, Topology: TopoMesh}, locals)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want int }{
		{0, 0, 0},  // same tile
		{0, 3, 3},  // same row
		{0, 12, 3}, // same column (4x4 mesh)
		{0, 15, 6}, // opposite corners
		{5, 10, 2}, // (1,1) -> (2,2)
	}
	for _, c := range cases {
		if got := hops(n, c.a, c.b); got != c.want {
			t.Errorf("mesh hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	valid := Config{Tiles: 4}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Tiles: 0},
		{Tiles: -3},
		{Tiles: maxTiles + 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted bad config %+v", c)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	k := sim.New()
	if _, err := New(k, Config{Tiles: 0}, nil); err == nil {
		t.Error("zero tiles accepted")
	}
	if _, err := New(k, Config{Tiles: 3}, make([]*mem.Local, 2)); err == nil {
		t.Error("locals/tiles mismatch accepted")
	}
}

func TestParseTopology(t *testing.T) {
	if topo, err := ParseTopology("ring"); err != nil || topo != TopoRing {
		t.Errorf("ParseTopology(ring) = %v, %v", topo, err)
	}
	if topo, err := ParseTopology("mesh"); err != nil || topo != TopoMesh {
		t.Errorf("ParseTopology(mesh) = %v, %v", topo, err)
	}
	if _, err := ParseTopology("torus"); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestMeshShortensWorstCase(t *testing.T) {
	build32 := func(topo Topology) *Network {
		k := sim.New()
		locals := make([]*mem.Local, 32)
		for i := range locals {
			locals[i] = &mem.Local{RAM: mem.NewRAM(0, 1024), Tile: i}
		}
		n, err := New(k, Config{Tiles: 32, Topology: topo}, locals)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	ring, mesh := build32(TopoRing), build32(TopoMesh)
	worst := func(n *Network) int {
		m := 0
		for a := 0; a < 32; a++ {
			for b := 0; b < 32; b++ {
				if h := hops(n, a, b); h > m {
					m = h
				}
			}
		}
		return m
	}
	if wr, wm := worst(ring), worst(mesh); wm >= wr {
		t.Fatalf("mesh worst-case hops %d not below ring %d at 32 tiles", wm, wr)
	}
}

// Flow state is allocated one chunk of destinations at a time: one message
// on a 1024-tile network costs its source's chunk directory and one chunk,
// not a slot for every destination. The last chunk of a tile count that is
// not a multiple of the chunk is only as long as the tiles it covers.
//
// TotalAlloc counts the whole process, and under load the runtime may
// start an OS thread inside the window (its m, g0, gsignal and profiling
// stacks add 5,248 B). The flow state's own bytes are the same on every
// network, so the least of three fresh measurements is the message's
// cost.
func TestFlowStateLazy(t *testing.T) {
	got := uint64(1 << 62)
	for range 3 {
		_, n, _ := build(1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n.arrivalAt(0, 5, 700, 4)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got >= 1024 {
		t.Fatalf("one message on 1024 tiles allocated %d B of flow state, want < 1024", got)
	}

	_, n, _ := build(100)
	first := n.arrivalAt(0, 5, 99, 4)
	if second := n.arrivalAt(0, 5, 99, 4); second <= first {
		t.Fatalf("flow 5->99: second message arrives at %d, first at %d", second, first)
	}
	if got := len(n.flows[5][1]); got != 100-flowChunk {
		t.Fatalf("last chunk of 100 tiles holds %d slots, want %d", got, 100-flowChunk)
	}
}
