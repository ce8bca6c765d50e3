package soc

import (
	"encoding/binary"

	"pmc/internal/cache"
	"pmc/internal/mem"
	"pmc/internal/sim"
)

// TileStats are the per-core micro-architectural counters of the paper's
// platform, split into the Fig. 8 stall categories. All values are cycles
// unless noted.
type TileStats struct {
	Busy            sim.Time // executing instructions (utilization)
	IStall          sim.Time // instruction cache miss stalls
	PrivReadStall   sim.Time // data stalls reading private data
	SharedReadStall sim.Time // data stalls reading shared data
	WriteStall      sim.Time // data stalls on writes (private or shared)
	FlushStall      sim.Time // bus time blocked behind cache-flush writebacks
	LockWait        sim.Time // waiting for lock grants (local spin)
	CopyStall       sim.Time // block copies between SDRAM and local/SPM

	Instrs       uint64 // instructions executed (incl. flush instructions)
	FlushInstrs  uint64 // cache-control instructions executed
	SharedReads  uint64
	SharedWrites uint64
	PrivReads    uint64
	PrivWrites   uint64
}

// Add accumulates o into t.
func (t *TileStats) Add(o TileStats) {
	t.Busy += o.Busy
	t.IStall += o.IStall
	t.PrivReadStall += o.PrivReadStall
	t.SharedReadStall += o.SharedReadStall
	t.WriteStall += o.WriteStall
	t.FlushStall += o.FlushStall
	t.LockWait += o.LockWait
	t.CopyStall += o.CopyStall
	t.Instrs += o.Instrs
	t.FlushInstrs += o.FlushInstrs
	t.SharedReads += o.SharedReads
	t.SharedWrites += o.SharedWrites
	t.PrivReads += o.PrivReads
	t.PrivWrites += o.PrivWrites
}

// Total returns the accounted cycles (the denominator of Fig. 8 bars).
func (t *TileStats) Total() sim.Time {
	return t.Busy + t.IStall + t.PrivReadStall + t.SharedReadStall +
		t.WriteStall + t.FlushStall + t.LockWait + t.CopyStall
}

// Tile is one processing element: core timing state, caches, local memory.
type Tile struct {
	ID    int
	Sys   *System
	IC    *cache.Cache
	DC    *cache.Cache
	Local *mem.Local
	// Cluster is the tile's cluster (every tile belongs to exactly one;
	// the flat system has a single cluster holding all tiles).
	Cluster *Cluster

	Stats TileStats

	// calls recycles fetchAndExec call records (see execCall).
	calls []*execCall

	// I-fetch walker state: the core's PC advances through a per-phase
	// code footprint in SDRAM, structured as a hot loop (hotSize bytes,
	// walked innerPasses times) followed by one pass over a cold
	// section (coldSize bytes) — the loop-nest shape of real kernels.
	// coldSize 0 degenerates to a plain cyclic walk.
	codeBase   mem.Addr
	hotSize    int
	coldSize   int
	innerPass  int
	pc         int // byte offset within the current region
	inCold     bool
	passesDone int
}

func newTile(s *System, id int) *Tile {
	t := &Tile{
		ID:    id,
		Sys:   s,
		IC:    cache.New(s.Cfg.ICache, s.SDRAM.RAM),
		DC:    cache.New(s.Cfg.DCache, s.SDRAM.RAM),
		Local: s.Locals[id],
	}
	// Until a workload declares its footprint, fetch from a tiny
	// per-tile stub that always fits the I-cache.
	t.SetCodeFootprint(mem.Addr(id)*64, 64)
	return t
}

// SetCodeFootprint declares the code region (inside SDRAM) the core is
// currently executing from. Instruction fetch walks it cyclically; a
// footprint larger than the I-cache thrashes, smaller runs from cache
// after warm-up — the source of Fig. 8's I-cache stall differences.
func (t *Tile) SetCodeFootprint(base mem.Addr, size int) {
	t.SetCodeLoop(base, size, 0, 1)
}

// SetCodeLoop declares a loop-nest-shaped code footprint: instruction
// fetch makes innerPasses passes over the hot region of hotBytes, then one
// pass over the cold section of coldBytes, and repeats. Real kernels spend
// most fetches in hot loops that fit the I-cache and miss only on the
// colder control code around them; the ratio of the regions and the pass
// count set the steady-state I-miss rate.
func (t *Tile) SetCodeLoop(base mem.Addr, hotBytes, coldBytes, innerPasses int) {
	ls := t.Sys.Cfg.ICache.LineSize
	round := func(b int) int {
		if b < ls {
			b = ls
		}
		return (b / ls) * ls
	}
	t.codeBase = base
	t.hotSize = round(hotBytes)
	if coldBytes > 0 {
		t.coldSize = round(coldBytes)
	} else {
		t.coldSize = 0
	}
	if innerPasses < 1 {
		innerPasses = 1
	}
	t.innerPass = innerPasses
	t.pc = 0
	t.inCold = false
	t.passesDone = 0
}

// instrsPerLine is fixed by the 32-bit MicroBlaze ISA.
func (t *Tile) instrsPerLine() int { return t.Sys.Cfg.ICache.LineSize / 4 }

// fetchAndExec walks n instructions through the I-cache, charging fill
// stalls, and advances simulated time for the execute cycles (1 per
// instruction). It is the single bottleneck through which all "executed
// instructions" pass. Only the I-cache's tags matter: a miss charges the
// SDRAM line burst and installs the tag, but no instruction bytes move.
//
// The walk is a step chain (sim.Proc.Steps): per line, a probe, the fill
// wait on a miss, then the execute wait. A call therefore costs at most
// one coroutine round trip however many lines it crosses, with the event
// order of the plain per-line wait loop.
func (t *Tile) fetchAndExec(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	t.Stats.Instrs += uint64(n)
	var c *execCall
	if k := len(t.calls); k > 0 {
		c = t.calls[k-1]
		t.calls = t.calls[:k-1]
	} else {
		c = &execCall{t: t}
		c.step = c.next
	}
	c.left, c.phase = n, execStart
	p.Steps(c.step)
	t.calls = append(t.calls, c)
}

// execCall is one fetchAndExec call's walk through the code footprint.
// The walker position (pc, region, passes) is the tile's, but the state of
// a call in flight is the call's own: two processes may interleave calls
// on one tile. Records are recycled through the tile's free list.
type execCall struct {
	t     *Tile
	step  func() (sim.Time, bool) // next, bound once per record
	phase execPhase
	left  int // instructions not yet executed
	// The current line: its instruction count, its address, the size of
	// the region it lies in (captured at the probe) and, on a miss, the
	// cycle the fill began.
	inLine     int
	lineAddr   mem.Addr
	regionSize int
	fillStart  sim.Time
}

// execPhase is what an execCall's next step follows.
type execPhase uint8

const (
	execStart execPhase = iota // nothing: the call begins
	execFill                   // the current line's fill wait
	execRun                    // the current line's execute wait
)

// next runs the call's step that follows its current phase and returns
// the time it waits until, or false when the call is complete.
func (c *execCall) next() (sim.Time, bool) {
	t := c.t
	now := t.Sys.K.Now()
	switch c.phase {
	case execFill:
		t.Stats.IStall += now - c.fillStart
		t.IC.Install(c.lineAddr)
		t.Sys.SDRAM.LineFills++
		c.phase = execRun
		return now + sim.Time(c.inLine), true
	case execRun:
		t.Stats.Busy += sim.Time(c.inLine)
		t.pc += c.inLine * 4
		if t.pc >= c.regionSize {
			t.pc = 0
			if t.inCold {
				t.inCold = false
				t.passesDone = 0
			} else {
				t.passesDone++
				if t.passesDone >= t.innerPass && t.coldSize > 0 {
					t.inCold = true
				}
			}
		}
		c.left -= c.inLine
		if c.left == 0 {
			return 0, false
		}
	}
	// Probe the next line.
	lineBytes := t.instrsPerLine() * 4
	c.regionSize = t.hotSize
	regionOff := 0
	if t.inCold {
		c.regionSize = t.coldSize
		regionOff = t.hotSize
	}
	lineOff := t.pc % lineBytes
	c.inLine = min((lineBytes-lineOff)/4, c.left)
	c.lineAddr = t.codeBase + mem.Addr(regionOff+t.pc-lineOff)
	if res, _ := t.IC.Probe(c.lineAddr); !res {
		// Miss: fill from SDRAM.
		c.fillStart = now
		c.phase = execFill
		return t.Sys.SDRAM.ReserveLineAt(now, c.lineAddr), true
	}
	c.phase = execRun
	return now + sim.Time(c.inLine), true
}

// Exec models n instructions of pure computation.
func (t *Tile) Exec(p *sim.Proc, n int) { t.fetchAndExec(p, n) }

// chargeTraffic converts D-cache traffic into memory stall time and
// returns the cycles stalled. addr is the accessed line (for bank routing);
// the victim writeback is routed by its own address.
func (t *Tile) chargeTraffic(p *sim.Proc, addr mem.Addr, tr cache.Traffic) sim.Time {
	var stall sim.Time
	if tr.Writeback {
		stall += t.Sys.SDRAM.AccessLine(p, tr.WritebackAddr)
		t.Sys.SDRAM.LineWBs++
	}
	if tr.Fill {
		stall += t.Sys.SDRAM.AccessLine(p, addr)
		t.Sys.SDRAM.LineFills++
	}
	return stall
}

// ReadPrivate32 loads a word of private (always cacheable) data.
func (t *Tile) ReadPrivate32(p *sim.Proc, addr mem.Addr) uint32 {
	t.fetchAndExec(p, 1)
	t.Stats.PrivReads++
	v, tr := t.DC.Read32(addr)
	t.Stats.PrivReadStall += t.chargeTraffic(p, addr, tr)
	return v
}

// WritePrivate32 stores a word of private data (write-back cached).
func (t *Tile) WritePrivate32(p *sim.Proc, addr mem.Addr, v uint32) {
	t.fetchAndExec(p, 1)
	t.Stats.PrivWrites++
	tr := t.DC.Write32(addr, v)
	t.Stats.WriteStall += t.chargeTraffic(p, addr, tr)
}

// ReadShared32Cached loads shared data through the D-cache (SWCC mode).
func (t *Tile) ReadShared32Cached(p *sim.Proc, addr mem.Addr) uint32 {
	t.fetchAndExec(p, 1)
	t.Stats.SharedReads++
	v, tr := t.DC.Read32(addr)
	t.Stats.SharedReadStall += t.chargeTraffic(p, addr, tr)
	return v
}

// WriteShared32Cached stores shared data through the D-cache (SWCC mode).
func (t *Tile) WriteShared32Cached(p *sim.Proc, addr mem.Addr, v uint32) {
	t.fetchAndExec(p, 1)
	t.Stats.SharedWrites++
	tr := t.DC.Write32(addr, v)
	t.Stats.WriteStall += t.chargeTraffic(p, addr, tr)
}

// ReadShared32Uncached loads shared data directly over the bus (noCC mode):
// the core stalls for arbitration plus the word access.
func (t *Tile) ReadShared32Uncached(p *sim.Proc, addr mem.Addr) uint32 {
	t.fetchAndExec(p, 1)
	t.Stats.SharedReads++
	v, stall := t.Sys.SDRAM.ReadWord(p, addr)
	t.Stats.SharedReadStall += stall
	return v
}

// WriteShared32Uncached stores shared data directly over the bus. Like the
// MicroBlaze's posted store buffer, the core does not wait for the bus: it
// reserves a slot and continues; a later access queues behind it.
func (t *Tile) WriteShared32Uncached(p *sim.Proc, addr mem.Addr, v uint32) {
	t.fetchAndExec(p, 1)
	t.Stats.SharedWrites++
	s := t.Sys.SDRAM
	end := s.ReserveWordAt(p.Now(), addr)
	s.WordWrites++
	// The data lands when the memory slot completes.
	t.Sys.K.ScheduleAt(end, func() { s.Write32(addr, v) })
	// One cycle to enter the store buffer.
	p.Wait(1)
	t.Stats.WriteStall++
}

// ReadLevel32 loads a word from this tile's memory at level l. The
// execute cycle covers a tile-local access (LMB-style); a cluster-scratch
// access also waits the crossbar traversal, charged as a shared-read
// stall.
func (t *Tile) ReadLevel32(p *sim.Proc, l Level, addr mem.Addr) uint32 {
	return t.readLevel(p, t.Mem(l), l.Latency(), addr)
}

// WriteLevel32 stores a word into this tile's memory at level l, waiting
// the level's crossbar traversal (if any) as a write stall.
func (t *Tile) WriteLevel32(p *sim.Proc, l Level, addr mem.Addr, v uint32) {
	t.writeLevel(p, t.Mem(l), l.Latency(), addr, v)
}

// ReadLevelRange loads len(dst) consecutive words from this tile's memory
// at level l, one load instruction per word: the memory serves one word
// per access either way, so a range costs exactly the ReadLevel32 loop.
// The memory and its latency are resolved once for the whole range.
func (t *Tile) ReadLevelRange(p *sim.Proc, l Level, addr mem.Addr, dst []uint32) {
	m, lat := t.Mem(l), l.Latency()
	for i := range dst {
		dst[i] = t.readLevel(p, m, lat, addr+mem.Addr(4*i))
	}
}

// WriteLevelRange stores src into consecutive words of this tile's memory
// at level l, one store instruction per word.
func (t *Tile) WriteLevelRange(p *sim.Proc, l Level, addr mem.Addr, src []uint32) {
	m, lat := t.Mem(l), l.Latency()
	for i, v := range src {
		t.writeLevel(p, m, lat, addr+mem.Addr(4*i), v)
	}
}

// readLevel is one word load from memory m, lat cycles beyond the execute
// cycle. Only a crossbar access (lat > 0) is a shared access with a stall.
func (t *Tile) readLevel(p *sim.Proc, m *mem.Local, lat sim.Time, addr mem.Addr) uint32 {
	t.fetchAndExec(p, 1)
	if lat > 0 {
		p.Wait(lat)
		t.Stats.SharedReadStall += lat
		t.Stats.SharedReads++
	}
	m.CoreReads++
	return m.Read32(addr)
}

// writeLevel is one word store into memory m (see readLevel).
func (t *Tile) writeLevel(p *sim.Proc, m *mem.Local, lat sim.Time, addr mem.Addr, v uint32) {
	t.fetchAndExec(p, 1)
	if lat > 0 {
		p.Wait(lat)
		t.Stats.WriteStall += lat
		t.Stats.SharedWrites++
	}
	m.CoreWrites++
	m.Write32(addr, v)
}

// dmaSetupInstrs is the instruction cost of programming a block-move
// (address/length registers plus the kick) charged once per DMA-style
// transfer, independent of its size.
const dmaSetupInstrs = 4

// ReadSharedRangeCached loads a word range of shared data through the
// D-cache (SWCC mode). Every missing line of the range is installed first
// with a single multi-line burst transaction (one arbitration, lines
// streamed back-to-back on the channel) instead of a per-word arbitrated
// fill, then the words are copied out of the cache at one instruction
// each. Each touched line moves over the bus at most once per range, and
// the cache sees one transaction per line (FillRange's hit/miss per
// line), not one per word — the DMA-engine access pattern.
func (t *Tile) ReadSharedRangeCached(p *sim.Proc, addr mem.Addr, dst []uint32) {
	if len(dst) == 0 {
		return
	}
	t.Stats.SharedReads += uint64(len(dst))
	fills, wbs := t.DC.FillRange(addr, len(dst)*4)
	for _, wb := range wbs {
		t.Stats.WriteStall += t.Sys.SDRAM.AccessLine(p, wb)
		t.Sys.SDRAM.LineWBs++
	}
	if fills > 0 {
		t.Stats.SharedReadStall += t.Sys.SDRAM.AccessLines(p, addr, fills)
		t.Sys.SDRAM.LineFills += uint64(fills)
	}
	t.fetchAndExec(p, len(dst))
	if t.DC.ReadRange32(addr, dst) {
		return
	}
	// A range larger than the cache evicted its own head while filling
	// its tail; fall back to the per-word path with charged traffic.
	for i := range dst {
		v, tr := t.DC.Read32(addr + mem.Addr(4*i))
		t.Stats.SharedReadStall += t.chargeTraffic(p, addr+mem.Addr(4*i), tr)
		dst[i] = v
	}
}

// WriteSharedRangeCached stores a word range of shared data through the
// D-cache (SWCC mode). Lines completely covered by the range are installed
// dirty without a write-allocate fill (every byte is overwritten, so the
// fetch would be wasted); partially covered boundary lines are filled with
// one burst first. Victim writebacks are charged per line.
func (t *Tile) WriteSharedRangeCached(p *sim.Proc, addr mem.Addr, src []uint32) {
	if len(src) == 0 {
		return
	}
	t.Stats.SharedWrites += uint64(len(src))
	ls := t.Sys.Cfg.DCache.LineSize
	end := addr + mem.Addr(len(src)*4)
	first := t.DC.LineBase(addr)
	last := t.DC.LineBase(end - 1)
	partialFills := 0
	lineBuf := make([]byte, ls)
	for a := first; ; a += mem.Addr(ls) {
		if a >= addr && a+mem.Addr(ls) <= end {
			// Whole line overwritten from the source buffer: install it
			// dirty, skipping the write-allocate fill.
			base := int(a-addr) / 4
			for i := 0; i < ls/4; i++ {
				binary.LittleEndian.PutUint32(lineBuf[4*i:], src[base+i])
			}
			if tr := t.DC.WriteLineFull(a, lineBuf); tr.Writeback {
				t.Stats.WriteStall += t.Sys.SDRAM.AccessLine(p, tr.WritebackAddr)
				t.Sys.SDRAM.LineWBs++
			}
		} else {
			// Partially covered boundary line: needs its other bytes.
			fills, wbs := t.DC.FillRange(a, 1)
			for _, wb := range wbs {
				t.Stats.WriteStall += t.Sys.SDRAM.AccessLine(p, wb)
				t.Sys.SDRAM.LineWBs++
			}
			partialFills += fills
		}
		if a == last {
			break
		}
	}
	if partialFills > 0 {
		t.Stats.WriteStall += t.Sys.SDRAM.AccessLines(p, addr, partialFills)
		t.Sys.SDRAM.LineFills += uint64(partialFills)
	}
	t.fetchAndExec(p, len(src))
	// Boundary words stream into the just-filled lines without further
	// cache transactions (the per-line install/fill above accounted
	// them); full lines already hold their data.
	for i, v := range src {
		a := addr + mem.Addr(4*i)
		if lb := t.DC.LineBase(a); lb >= addr && lb+mem.Addr(ls) <= end {
			continue // full line, installed above
		}
		if !t.DC.WriteRange32(a, src[i:i+1]) {
			// Self-evicted while filling a giant range: per-word path.
			tr := t.DC.Write32(a, v)
			t.Stats.WriteStall += t.chargeTraffic(p, a, tr)
		}
	}
}

// CopyLevel is a DMA-style block move inside this tile's memory at level
// l: the core programs the engine (dmaSetupInstrs) and the dual-port RAM
// streams one word per cycle, read and write overlapped — half the cost
// of the load/store-per-word loop — plus the level's crossbar traversal
// once.
func (t *Tile) CopyLevel(p *sim.Proc, l Level, src, dst mem.Addr, size int) {
	t.fetchAndExec(p, dmaSetupInstrs)
	t0 := p.Now()
	words := (size + 3) / 4
	m := t.Mem(l)
	buf := make([]byte, size)
	m.ReadBlock(src, buf)
	m.WriteBlock(dst, buf)
	m.CoreReads += uint64(words)
	m.CoreWrites += uint64(words)
	p.Wait(sim.Time(words) + l.Latency())
	t.Stats.CopyStall += p.Now() - t0
}

// FlushShared flush-invalidates the D-cache lines covering [addr,
// addr+size): one cache-control instruction per line plus bus time for each
// dirty writeback. This is the cost the paper reports as "time spent on
// executing flush instructions".
func (t *Tile) FlushShared(p *sim.Proc, addr mem.Addr, size int) {
	if size <= 0 {
		return
	}
	ls := t.Sys.Cfg.DCache.LineSize
	first := t.DC.LineBase(addr)
	last := t.DC.LineBase(addr + mem.Addr(size-1))
	for a := first; ; a += mem.Addr(ls) {
		t.fetchAndExec(p, 1)
		t.Stats.FlushInstrs++
		tr := t.DC.FlushLine(a)
		if tr.Writeback {
			t.Stats.FlushStall += t.Sys.SDRAM.AccessLine(p, a)
			t.Sys.SDRAM.LineWBs++
		}
		if a == last {
			break
		}
	}
}

// CopyToLevel copies size bytes from SDRAM into this tile's memory at
// level l (staging, replica initialization) as one DMA-style burst
// transaction: a single arbitration, then the lines stream back-to-back
// on the data channel while the destination memory absorbs them. A
// one-line copy costs exactly what a single line-burst access does.
func (t *Tile) CopyToLevel(p *sim.Proc, l Level, src mem.Addr, dst mem.Addr, size int) {
	if size <= 0 {
		return
	}
	t0 := p.Now()
	ls := t.Sys.Cfg.SDRAM.LineSize
	lines := (size + ls - 1) / ls
	t.Sys.SDRAM.AccessLines(p, src, lines)
	t.Sys.SDRAM.LineFills += uint64(lines)
	buf := make([]byte, size)
	t.Sys.SDRAM.ReadBlock(src, buf)
	t.Mem(l).WriteBlock(dst, buf)
	t.Stats.CopyStall += p.Now() - t0
}

// CopyFromLevel copies size bytes from this tile's memory at level l back
// to SDRAM in one DMA-style burst transaction.
func (t *Tile) CopyFromLevel(p *sim.Proc, l Level, src mem.Addr, dst mem.Addr, size int) {
	if size <= 0 {
		return
	}
	t0 := p.Now()
	ls := t.Sys.Cfg.SDRAM.LineSize
	lines := (size + ls - 1) / ls
	buf := make([]byte, size)
	t.Mem(l).ReadBlock(src, buf)
	t.Sys.SDRAM.AccessLines(p, dst, lines)
	t.Sys.SDRAM.LineWBs += uint64(lines)
	t.Sys.SDRAM.WriteBlock(dst, buf)
	t.Stats.CopyStall += p.Now() - t0
}

// AcquireLock acquires lockID through the system's lock implementation and
// attributes the wait.
func (t *Tile) AcquireLock(p *sim.Proc, lockID int) (prevHolder int) {
	wait, prev := t.Sys.Locks.Acquire(p, t.ID, lockID)
	t.Stats.LockWait += wait
	return prev
}

// ReleaseLock releases lockID (posted).
func (t *Tile) ReleaseLock(p *sim.Proc, lockID int) {
	t.Sys.Locks.Release(p, t.ID, lockID)
}
