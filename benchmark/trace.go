package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run records one span around every public call it makes into
// a layer. Spans stay in memory and are written as a Chrome trace when the
// run ends; the per-layer metrics are computed from them.

// noSpan is the parent of a root span.
const noSpan = -1

type span struct {
	name   string
	parent int   // index of the enclosing span, or noSpan
	req    int64 // request ID: cell index, program seed or job index
	lane   int   // worker lane, the Chrome-trace thread
	start  time.Duration
	end    time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer collects spans. Its methods are safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for child spans.
func (t *tracer) begin(name string, parent int, req int64, lane int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, lane: lane, start: now, end: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call runs fn inside a child span of parent.
func (t *tracer) call(name string, parent int, fn func()) {
	t.mu.Lock()
	p := t.spans[parent]
	t.mu.Unlock()
	id := t.begin(name, parent, p.req, p.lane)
	fn()
	t.end(id)
}

// each calls fn for every span, in the order the spans began.
func (t *tracer) each(fn func(span)) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, s := range spans {
		fn(s)
	}
}

// spanStats aggregates the spans of one name. A span's self time is its
// duration minus the union of its children's intervals.
type spanStats struct {
	durs  []time.Duration // per span, in start order
	total time.Duration
	self  time.Duration // total minus the time child spans cover
}

func (s *spanStats) meanMs() float64 { return ratio(ms(s.total), float64(len(s.durs))) }

// stats aggregates the spans by name.
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*spanStats)
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.durs = append(st.durs, s.dur())
		st.total += s.dur()
		st.self += s.dur() - covered(t.spans, children[i], s.start, s.end)
	}
	return out
}

// layerSelf sums the self time of a layer's spans: those named
// "<layer>.<call>".
func layerSelf(st map[string]*spanStats, layer string) time.Duration {
	var d time.Duration
	for name, s := range st {
		if strings.HasPrefix(name, layer+".") {
			d += s.self
		}
	}
	return d
}

// covered returns how much of [from, to] the given spans cover together.
func covered(spans []span, ids []int, from, to time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		a, b := max(spans[id].start, from), min(spans[id].end, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, reach time.Duration
	reach = from
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		sum += v.b - max(v.a, reach)
		reach = v.b
	}
	return sum
}

// writeChrome writes the spans in Chrome's trace-event JSON format (load
// it in chrome://tracing or Perfetto). The category is the layer: the
// span name up to its first dot.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	t.mu.Lock()
	for i, s := range t.spans {
		parent := ""
		if s.parent != noSpan {
			parent = t.spans[s.parent].name
		}
		layer, _, _ := strings.Cut(s.name, ".")
		ev, err := json.Marshal(map[string]any{
			"name": s.name, "cat": layer, "ph": "X", "pid": 1, "tid": s.lane,
			"ts":   float64(s.start) / float64(time.Microsecond),
			"dur":  float64(s.dur()) / float64(time.Microsecond),
			"args": map[string]any{"req": s.req, "parent": parent},
		})
		if err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
		w.Write(ev)
	}
	t.mu.Unlock()
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
