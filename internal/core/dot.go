package core

import (
	"fmt"
	"sort"
	"strings"
)

// redundant reports whether edge ed is implied by the rest of the graph:
// there is an alternative path From→To of length ≥ 2 using edges at least
// as visible as ed (global edges may only be replaced by global paths;
// local edges by paths visible to their owner). The paper's figures are
// transitively reduced in exactly this sense.
func (e *Execution) redundant(ed Edge) bool {
	viewer := InitProc // global-only view
	if !ed.Ord.Global() {
		viewer = e.ops[ed.To].Proc
	}
	// BFS from ed.From avoiding the direct edge.
	seen := make([]bool, len(e.ops))
	queue := []int{ed.From}
	seen[ed.From] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, o := range e.out[n] {
			if n == ed.From && o.To == ed.To {
				continue // skip the edge under test
			}
			if !e.visible(o, viewer) || seen[o.To] {
				continue
			}
			if o.To == ed.To {
				return true
			}
			seen[o.To] = true
			queue = append(queue, o.To)
		}
	}
	return false
}

// ReducedEdges returns the transitive reduction of the dependency graph,
// respecting edge visibility.
func (e *Execution) ReducedEdges() []Edge {
	e.checkLive()
	var out []Edge
	for _, es := range e.out {
		for _, ed := range es {
			if !e.redundant(ed) {
				out = append(out, ed)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// DOT renders the execution as a Graphviz digraph in the style of the
// paper's Figs. 2–5: transitively reduced, one subgraph cluster per
// process, local edges dashed and annotated with their owning process,
// the implicit initial writes omitted unless they carry a non-redundant
// edge.
func (e *Execution) DOT(title string) string {
	e.checkLive()
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontsize=10];\n")

	edges := e.ReducedEdges()
	used := make(map[int]bool)
	for _, ed := range edges {
		used[ed.From] = true
		used[ed.To] = true
	}

	// Group nodes per process.
	byProc := make(map[ProcID][]*Op)
	for _, op := range e.ops {
		if op.IsInit && !used[op.ID] {
			continue // paper omits implicit init writes
		}
		byProc[op.Proc] = append(byProc[op.Proc], op)
	}
	var procs []ProcID
	for p := range byProc {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		if p != InitProc {
			fmt.Fprintf(&b, "  subgraph cluster_p%d {\n    label=\"Process %d\";\n", p, p)
		}
		for _, op := range byProc[p] {
			label := op.Label
			if label == "" {
				label = op.String()
			}
			indent := "  "
			if p != InitProc {
				indent = "    "
			}
			fmt.Fprintf(&b, "%sn%d [label=%q];\n", indent, op.ID, label)
		}
		if p != InitProc {
			b.WriteString("  }\n")
		}
	}
	for _, ed := range edges {
		attrs := fmt.Sprintf("label=%q", ed.Ord.String())
		if !ed.Ord.Global() {
			owner := e.ops[ed.To].Proc
			attrs = fmt.Sprintf("label=\"%d%s\", style=dashed", owner, ed.Ord)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", ed.From, ed.To, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
