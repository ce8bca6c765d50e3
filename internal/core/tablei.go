package core

import (
	"fmt"
	"strings"
)

// Rule is one populated cell of the paper's Table I: when an operation of
// kind New executes, an edge of kind Ord is added from every earlier
// operation matching (Earlier, proc, loc) to the new operation.
//
// Matching scope:
//   - process: the earlier operation must be by the same process, except
//     when AnyProc is set (the table's footnote: "an acquire has its
//     ordering ≺S on (R, ∗, v, ∗), not just on releases of the same
//     process");
//   - location: the earlier operation must be on the same location, except
//     when either side is a fence (fences span locations, Definition 8).
type Rule struct {
	Earlier Kind
	New     Kind
	Ord     Ord
	AnyProc bool
}

// TableI is the ordering-rule table (paper Table I). It is the single
// source of truth: Execution.Exec applies exactly these rules, and
// RenderTableI prints them in the paper's layout for visual comparison.
//
// The reconstruction of two OCR-ambiguous cells — (write→fence) = ≺ℓ and
// the fence row populating the w/R/A columns — follows the prose of
// Section IV-C and the edge labels of Figs. 4, 5 and 9; see DESIGN.md §4.
var TableI = []Rule{
	// Earlier read (r, p, v, *):
	{Earlier: KRead, New: KWrite, Ord: OrdLocal},
	{Earlier: KRead, New: KRelease, Ord: OrdLocal},
	{Earlier: KRead, New: KAcquire, Ord: OrdLocal},
	{Earlier: KRead, New: KFence, Ord: OrdLocal},

	// Earlier write (w, p, v, *):
	{Earlier: KWrite, New: KRead, Ord: OrdLocal},
	{Earlier: KWrite, New: KWrite, Ord: OrdProgram},
	{Earlier: KWrite, New: KRelease, Ord: OrdProgram},
	{Earlier: KWrite, New: KFence, Ord: OrdLocal},

	// Earlier acquire (A, p, v, *):
	{Earlier: KAcquire, New: KRead, Ord: OrdLocal},
	{Earlier: KAcquire, New: KWrite, Ord: OrdProgram},
	{Earlier: KAcquire, New: KRelease, Ord: OrdProgram},
	{Earlier: KAcquire, New: KFence, Ord: OrdFence},

	// Earlier release (R, *, v, *) — the ≺S rule crosses processes:
	{Earlier: KRelease, New: KAcquire, Ord: OrdSync, AnyProc: true},
	{Earlier: KRelease, New: KFence, Ord: OrdFence},

	// Earlier fence (F, p, *, *):
	{Earlier: KFence, New: KWrite, Ord: OrdFence},
	{Earlier: KFence, New: KRelease, Ord: OrdFence},
	{Earlier: KFence, New: KAcquire, Ord: OrdFence},
}

// rulesByNew indexes TableI by the new operation's kind, in table order.
// It is built once, so the per-operation rule lookup in Exec and
// LastWritesAt allocates nothing.
var rulesByNew = func() [KFence + 1][]Rule {
	var idx [KFence + 1][]Rule
	for _, r := range TableI {
		idx[r.New] = append(idx[r.New], r)
	}
	return idx
}()

// RulesFor returns the Table I rules triggered by a new operation of kind
// k, in table order. The slice is shared; treat it as read-only.
func RulesFor(k Kind) []Rule {
	if int(k) >= len(rulesByNew) {
		return nil
	}
	rs := rulesByNew[k]
	return rs[:len(rs):len(rs)]
}

// RenderTableI prints the rule table in the paper's row/column layout.
func RenderTableI() string {
	cols := []Kind{KRead, KWrite, KRelease, KAcquire, KFence}
	rows := []struct {
		kind    Kind
		pattern string
	}{
		{KRead, "read    (r, p, v, *)"},
		{KWrite, "write   (w, p, v, *)"},
		{KAcquire, "acquire (A, p, v, *)"},
		{KRelease, "release (R, p, v, *)"},
		{KFence, "fence   (F, p, *, *)"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "existing \\ new")
	for _, c := range cols {
		fmt.Fprintf(&b, "%6s", c)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s", row.pattern)
		for _, c := range cols {
			cell := "     -"
			for _, r := range TableI {
				if r.Earlier == row.kind && r.New == c {
					cell = fmt.Sprintf("%6s", r.Ord)
					if r.AnyProc {
						cell = fmt.Sprintf("%6s", r.Ord.String()+"†")
					}
				}
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	b.WriteString("† matches releases of the location by any process\n")
	return b.String()
}
