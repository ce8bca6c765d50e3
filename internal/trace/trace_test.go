package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pmc/internal/sim"
)

func TestEmitAndLimit(t *testing.T) {
	tr := New(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: sim.Time(i), Tile: 0, Phase: Instant, Name: "e"})
	}
	if tr.Len() != 3 || tr.Dropped != 2 {
		t.Fatalf("len=%d dropped=%d, want 3,2", tr.Len(), tr.Dropped)
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New(0)
	tr.Emit(Event{Time: 10, Tile: 1, Phase: Begin, Name: "x:obj"})
	tr.Emit(Event{Time: 20, Tile: 1, Phase: End, Name: "x:obj", Arg: 7})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"time,tile,phase,name,arg", "10,1,B,x:obj,0", "20,1,E,x:obj,7"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := New(0)
	tr.Emit(Event{Time: 5, Tile: 2, Phase: Begin, Name: "ro:cell"})
	tr.Emit(Event{Time: 9, Tile: 2, Phase: Instant, Name: "fence"})
	tr.Emit(Event{Time: 12, Tile: 2, Phase: End, Name: "ro:cell"})
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
}
