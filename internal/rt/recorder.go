package rt

import (
	"fmt"

	"pmc/internal/core"
	"pmc/internal/mem"
)

// Recorder mirrors a simulated run into the formal PMC model
// (internal/core) and verifies, read by read, that the value the simulated
// memory system actually returned is one the model permits. It is the
// differential-testing bridge between the paper's Section IV (the model)
// and Section V (the implementations).
//
// Granularity: each 32-bit word of an annotated object is one model
// location, and entry_x/exit_x issue an acquire/release per word — the
// model's treatment of multi-byte objects protected by one mutex
// (Section V-A). Objects larger than maxRecordedWords are not recorded
// (the model is O(n²); the recorder is a test tool for small
// configurations).
//
// For the staging backends (spm, cspm), in-scope reads and writes touch
// the staged copy, so the recorder maps the staging copy-in to model reads
// and the copy-back to model writes instead (see
// recordStage/recordUnstage).
type Recorder struct {
	Exec *core.Execution
	// Errors collects model violations (reads returning values the
	// model forbids).
	Errors []string

	locs map[int][]core.Loc // object ID -> per-word locations
	rt   *Runtime
}

// NewRecorder attaches a fresh recorder to rt. Call before allocating
// objects.
func NewRecorder(rt *Runtime) *Recorder {
	r := &Recorder{
		Exec: core.NewExecution(),
		locs: make(map[int][]core.Loc),
		rt:   rt,
	}
	rt.Recorder = r
	return r
}

// maxRecordedWords bounds recorded object size.
const maxRecordedWords = 64

// setupProc is the model process used for InitObject pre-loading.
const setupProc core.ProcID = 1 << 20

func (r *Recorder) addObject(o *Object) {
	if o.WordCount() > maxRecordedWords {
		return
	}
	ls := make([]core.Loc, o.WordCount())
	for i := range ls {
		ls[i] = r.Exec.AddLoc(fmt.Sprintf("%s[%d]", o.Name, i))
	}
	r.locs[o.ID] = ls
}

func (r *Recorder) initObject(o *Object, words []uint32) {
	ls, ok := r.locs[o.ID]
	if !ok {
		return
	}
	for i, w := range words {
		r.Exec.Acquire(setupProc, ls[i])
		r.Exec.Write(setupProc, ls[i], core.Value(w))
		r.Exec.Release(setupProc, ls[i])
	}
}

func (r *Recorder) proc(c *Ctx) core.ProcID { return core.ProcID(c.T.ID) }

// staging returns the staging protocol serving o right now (spm or cspm,
// possibly reached through a fault wrapper or the adaptive router), or
// nil: in-scope reads and writes of a staged object touch the staged
// copy, so the recorder maps the copy-in/copy-back instead.
func (r *Recorder) staging(o *Object) *stagingBackend {
	sb, _ := r.rt.protoFor(o).(*stagingBackend)
	return sb
}

// staged reports whether o is served by a staging protocol.
func (r *Recorder) staged(o *Object) bool { return r.staging(o) != nil }

func (r *Recorder) acquire(c *Ctx, o *Object) {
	ls, ok := r.locs[o.ID]
	if !ok {
		return
	}
	for _, l := range ls {
		r.Exec.Acquire(r.proc(c), l)
	}
	if r.staged(o) {
		r.recordStage(c, o)
	}
}

func (r *Recorder) release(c *Ctx, o *Object) {
	ls, ok := r.locs[o.ID]
	if !ok {
		return
	}
	if r.staged(o) {
		r.recordUnstage(c, o)
	}
	for _, l := range ls {
		r.Exec.Release(r.proc(c), l)
	}
}

func (r *Recorder) enterRO(c *Ctx, o *Object) {
	ls, ok := r.locs[o.ID]
	if !ok {
		return
	}
	// Record what the implementation does: multi-word entry_ro takes
	// the object's lock (SWCC/DSM hold it for the scope; SPM only for
	// the copy, which recordStage models by releasing immediately).
	locked := o.Size > AtomicSize
	if locked {
		for _, l := range ls {
			r.Exec.Acquire(r.proc(c), l)
		}
	}
	if r.staged(o) {
		r.recordStage(c, o)
		if locked {
			for _, l := range ls {
				r.Exec.Release(r.proc(c), l)
			}
		}
	}
}

func (r *Recorder) exitRO(c *Ctx, o *Object) {
	ls, ok := r.locs[o.ID]
	if !ok {
		return
	}
	if r.staged(o) {
		// The lock (if any) was already released after the copy.
		return
	}
	if o.Size > AtomicSize {
		for _, l := range ls {
			r.Exec.Release(r.proc(c), l)
		}
	}
}

func (r *Recorder) fence(c *Ctx) {
	r.Exec.Fence(r.proc(c))
}

// fenceObj records a location-scoped fence: one model fence per word
// location of the object.
func (r *Recorder) fenceObj(c *Ctx, o *Object) {
	ls, ok := r.locs[o.ID]
	if !ok {
		return
	}
	for _, l := range ls {
		r.Exec.FenceLoc(r.proc(c), l)
	}
}

// recordStage models the SPM copy-in: a read of every word with the values
// the copy captured.
func (r *Recorder) recordStage(c *Ctx, o *Object) {
	ls := r.locs[o.ID]
	for i, l := range ls {
		v := r.rt.Sys.SDRAM.Read32(o.Addr + mem.Addr(4*i))
		r.verifyRead(c, o, i, l, v)
	}
}

// recordUnstage models the staging copy-back: a write of every word with
// the staged copy's current values, read from the memory level it was
// staged into.
func (r *Recorder) recordUnstage(c *Ctx, o *Object) {
	ls := r.locs[o.ID]
	s, ok := c.scopes[o]
	if !ok {
		return
	}
	m := c.T.Mem(r.staging(o).level)
	for i, l := range ls {
		v := m.Read32(s.spmAddr + mem.Addr(4*i))
		r.Exec.Write(r.proc(c), l, core.Value(v))
	}
}

func (r *Recorder) read(c *Ctx, o *Object, off int, v uint32) {
	ls, ok := r.locs[o.ID]
	if !ok || r.staged(o) {
		return // SPM in-scope reads hit the staged copy (recorded at entry)
	}
	r.verifyRead(c, o, off/4, ls[off/4], v)
}

// verifyRead issues the model read and checks the simulated value against
// the model's readable set at this state.
func (r *Recorder) verifyRead(c *Ctx, o *Object, word int, l core.Loc, v uint32) {
	op := r.Exec.Read(r.proc(c), l, core.Value(v))
	for _, allowed := range r.Exec.ReadableValues(op.ID) {
		if allowed == core.Value(v) {
			return
		}
	}
	r.Errors = append(r.Errors,
		fmt.Sprintf("tile %d read %s[%d] = %d at cycle %d: value not readable under the PMC model (readable: %v)",
			c.T.ID, o.Name, word, v, c.P.Now(), r.Exec.ReadableValues(op.ID)))
}

func (r *Recorder) write(c *Ctx, o *Object, off int, v uint32) {
	ls, ok := r.locs[o.ID]
	if !ok || r.staged(o) {
		return // SPM in-scope writes are recorded at copy-back
	}
	r.Exec.Write(r.proc(c), ls[off/4], core.Value(v))
}

// readRange lowers a ranged read to one model read per word: the model has
// no block operations, so conformance keeps checking every transferred
// word against the Table I rules exactly as if it had been a Read32 loop.
func (r *Recorder) readRange(c *Ctx, o *Object, off int, dst []uint32) {
	for i, v := range dst {
		r.read(c, o, off+4*i, v)
	}
}

// writeRange lowers a ranged write to one model write per word.
func (r *Recorder) writeRange(c *Ctx, o *Object, off int, src []uint32) {
	for i, v := range src {
		r.write(c, o, off+4*i, v)
	}
}

// copyRange lowers an object-to-object block copy to per-word model reads
// of the source (each verified against the model's readable set) followed
// by per-word model writes of the destination.
func (r *Recorder) copyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, vals []uint32) {
	for i, v := range vals {
		r.read(c, src, srcOff+4*i, v)
	}
	for i, v := range vals {
		r.write(c, dst, dstOff+4*i, v)
	}
}

// Err returns the first verification error, or nil.
func (r *Recorder) Err() error {
	if len(r.Errors) > 0 {
		return fmt.Errorf("rt: %d model violations; first: %s", len(r.Errors), r.Errors[0])
	}
	return nil
}
