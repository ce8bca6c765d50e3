// Package trace records structured events from a PMC runtime run and
// exports them as Chrome-trace JSON (chrome://tracing / ui.perfetto.dev),
// one track per tile. Scope events (entry/exit pairs)
// become duration slices; fences, flushes and lock grants become instant
// events — the visualization makes protocol problems (lock convoys,
// serialized read-only scopes, flush storms) visible at a glance.
package trace

import (
	"encoding/json"
	"io"

	"pmc/internal/sim"
)

// Phase classifies an event.
type Phase uint8

const (
	// Begin opens a duration slice (entry_x/entry_ro).
	Begin Phase = iota
	// End closes the innermost slice with the same name (exit_x/exit_ro).
	End
	// Instant is a point event (fence, flush, lock grant).
	Instant
)

// Event is one recorded occurrence.
type Event struct {
	Time  sim.Time
	Tile  int
	Phase Phase
	// Name identifies the activity ("x:objname", "ro:objname", "fence").
	Name string
	// Arg carries an optional value (read/write payloads, wait cycles).
	Arg uint64
}

// Trace is a bounded in-memory event recorder: it keeps the first
// maxEvents events. The zero value is an empty trace.
type Trace struct {
	events  []Event
	Dropped int
}

// maxEvents bounds the events a trace keeps.
const maxEvents = 1 << 20

// Emit records an event; beyond maxEvents events are counted as dropped.
func (t *Trace) Emit(e Event) {
	if len(t.events) >= maxEvents {
		t.Dropped++
		return
	}
	t.events = append(t.events, e)
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// chromeEvent is the Trace Event Format record.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// WriteChrome emits the Chrome Trace Event Format (JSON array). Simulated
// cycles map to microseconds.
func (t *Trace) WriteChrome(w io.Writer) error {
	out := make([]chromeEvent, 0, len(t.events))
	for _, e := range t.events {
		ce := chromeEvent{
			Name: e.Name,
			Ts:   uint64(e.Time),
			PID:  0,
			TID:  e.Tile,
		}
		switch e.Phase {
		case Begin:
			ce.Ph = "B"
		case End:
			ce.Ph = "E"
		case Instant:
			ce.Ph = "i"
			ce.S = "t"
		}
		if e.Arg != 0 {
			ce.Args = map[string]uint64{"arg": e.Arg}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
