package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pmc/internal/sim"
)

func TestEmitAndLimit(t *testing.T) {
	// Start 3 events short of the bound; the untouched backing pages
	// stay unmapped.
	tr := &Trace{events: make([]Event, maxEvents-3, maxEvents)}
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: sim.Time(i), Tile: 0, Phase: Instant, Name: "e"})
	}
	if tr.Len() != maxEvents || tr.Dropped != 2 {
		t.Fatalf("len=%d dropped=%d, want %d,2", tr.Len(), tr.Dropped, maxEvents)
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := &Trace{}
	tr.Emit(Event{Time: 5, Tile: 2, Phase: Begin, Name: "ro:cell"})
	tr.Emit(Event{Time: 9, Tile: 2, Phase: Instant, Name: "fence"})
	tr.Emit(Event{Time: 12, Tile: 2, Phase: End, Name: "ro:cell", Arg: 7})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	if events[0]["ph"] != "B" || events[1]["ph"] != "i" || events[2]["ph"] != "E" {
		t.Fatalf("phases wrong: %v", events)
	}
	if events[2]["ts"] != 12.0 || events[2]["tid"] != 2.0 || fmt.Sprint(events[2]["args"]) != "map[arg:7]" {
		t.Fatalf("time, tile or arg wrong: %v", events[2])
	}
	if _, ok := events[0]["args"]; ok {
		t.Fatalf("zero arg exported: %v", events[0])
	}
}
