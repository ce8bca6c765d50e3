package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Compare semantics. Entries and metrics are matched by name between a
// baseline ("old") and a candidate ("new") report. Every metric is exact,
// so any value change — in either direction — gates: a deterministic
// quantity that changed means the measured computation itself changed,
// which must be acknowledged by refreshing the committed baseline (see
// README "Performance tracking"). The classification still records the
// direction (lower = improved, higher = regressed). An entry or metric
// present in the baseline but absent from the candidate is missing
// (gates); present only in the candidate it is added (informational).

// Classification classes.
const (
	ClassImproved  = "improved"
	ClassRegressed = "regressed"
	ClassUnchanged = "unchanged"
	ClassMissing   = "missing"
	ClassAdded     = "added"
)

// Delta is the comparison of one metric of one entry.
type Delta struct {
	Entry  string
	Metric string
	Old    float64
	New    float64
	// Pct is the relative change in percent (new vs old).
	Pct   float64
	Class string
}

// gates reports whether this delta should fail a comparison: anything
// changed or missing.
func (d Delta) gates() bool {
	return d.Class != ClassUnchanged && d.Class != ClassAdded
}

// Comparison is a completed report diff.
type Comparison struct {
	Deltas []Delta
}

// Failures returns the deltas that gate (see Delta.gates).
func (c *Comparison) Failures() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.gates() {
			out = append(out, d)
		}
	}
	return out
}

// Ok reports a clean comparison: nothing changed, nothing missing.
func (c *Comparison) Ok() bool { return len(c.Failures()) == 0 }

// String renders the comparison as a table of changed metrics followed by
// a summary line; unchanged metrics are counted, not listed.
func (c *Comparison) String() string {
	var b strings.Builder
	unchanged := 0
	for _, d := range c.Deltas {
		switch d.Class {
		case ClassUnchanged:
			unchanged++
		case ClassMissing:
			fmt.Fprintf(&b, "  MISSING   %s %s (baseline %.6g)\n", d.Entry, d.Metric, d.Old)
		case ClassAdded:
			fmt.Fprintf(&b, "  added     %s %s (%.6g)\n", d.Entry, d.Metric, d.New)
		default:
			pct := ""
			if d.Old != 0 {
				pct = fmt.Sprintf(" (%+.1f%%)", d.Pct)
			}
			fmt.Fprintf(&b, "  %-9s %s %s: %.6g -> %.6g%s\n",
				d.Class, d.Entry, d.Metric, d.Old, d.New, pct)
		}
	}
	fails := c.Failures()
	fmt.Fprintf(&b, "compared %d metrics: %d unchanged, %d gating failures\n",
		len(c.Deltas), unchanged, len(fails))
	for _, d := range fails {
		reason := d.Class
		if d.Class != ClassMissing {
			reason = d.Class + ": exact metric changed (refresh the baseline if intentional)"
		}
		fmt.Fprintf(&b, "  FAIL %s %s: %s\n", d.Entry, d.Metric, reason)
	}
	return b.String()
}

// Compare diffs a candidate report against a baseline. Reports with
// different schema versions cannot be compared.
func Compare(base, cand *Report) (*Comparison, error) {
	if base.Schema != cand.Schema {
		return nil, fmt.Errorf("perf: schema mismatch: baseline v%d vs candidate v%d", base.Schema, cand.Schema)
	}
	c := &Comparison{}
	for i := range base.Entries {
		oe := &base.Entries[i]
		ne := cand.Entry(oe.Name)
		if ne == nil {
			c.Deltas = append(c.Deltas, Delta{Entry: oe.Name, Metric: "*", Class: ClassMissing})
			continue
		}
		for _, om := range oe.Metrics {
			nm := ne.Metric(om.Name)
			if nm == nil {
				c.Deltas = append(c.Deltas, Delta{Entry: oe.Name, Metric: om.Name, Old: om.Value, Class: ClassMissing})
				continue
			}
			c.Deltas = append(c.Deltas, classify(oe.Name, om, *nm))
		}
		for _, nm := range ne.Metrics {
			if oe.Metric(nm.Name) == nil {
				c.Deltas = append(c.Deltas, Delta{Entry: oe.Name, Metric: nm.Name, New: nm.Value, Class: ClassAdded})
			}
		}
	}
	for i := range cand.Entries {
		if base.Entry(cand.Entries[i].Name) == nil {
			c.Deltas = append(c.Deltas, Delta{Entry: cand.Entries[i].Name, Metric: "*", Class: ClassAdded})
		}
	}
	return c, nil
}

// classify diffs one matched metric pair.
func classify(entry string, om, nm Metric) Delta {
	d := Delta{Entry: entry, Metric: om.Name, Old: om.Value, New: nm.Value}
	if om.Value != 0 {
		d.Pct = 100 * (nm.Value - om.Value) / math.Abs(om.Value)
	}
	switch {
	case nm.Value == om.Value:
		d.Class = ClassUnchanged
	case nm.Value < om.Value:
		d.Class = ClassImproved
	default:
		d.Class = ClassRegressed
	}
	return d
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadReport reads and validates a BENCH.json file. Entry names, and
// metric names within an entry, must be unique: Compare matches by name,
// so a duplicate would be silently ignored.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema == 0 {
		return nil, fmt.Errorf("perf: %s: missing schema version", path)
	}
	entries := make(map[string]bool, len(r.Entries))
	for _, e := range r.Entries {
		if entries[e.Name] {
			return nil, fmt.Errorf("perf: %s: duplicate entry %q", path, e.Name)
		}
		entries[e.Name] = true
		metrics := make(map[string]bool, len(e.Metrics))
		for _, m := range e.Metrics {
			if metrics[m.Name] {
				return nil, fmt.Errorf("perf: %s: entry %q: duplicate metric %q", path, e.Name, m.Name)
			}
			metrics[m.Name] = true
		}
	}
	return &r, nil
}
