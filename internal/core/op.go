// Package core implements the PMC memory consistency model of Section IV of
// the paper — the primary contribution. It provides:
//
//   - the five memory operations (read, write, acquire, release, fence) and
//     the four ordering relations (local ≺ℓ, program ≺P, synchronization ≺S,
//     fence ≺F);
//   - executions (Definition 1): the dependency graph a program builds as it
//     issues operations, grown by the state-transition rules of Table I
//     (Definition 4), which this package encodes as data so the
//     implementation and the paper's table can be compared side by side;
//   - the observation relations: the globally agreed order ≺G
//     (Definition 9) and the per-process view p≺ that adds the process's own
//     local orderings (Definition 10);
//   - read semantics: the last-write set W_o (Definition 11), the set of
//     values a read may return (Definition 12), and data-race detection
//     (|W_o| > 1);
//   - transitively reduced DOT export, which regenerates the dependency
//     graphs of the paper's Figs. 2–5.
//
// The model is the oracle for everything else in the repository: the litmus
// explorer (internal/litmus) enumerates interleavings over it, and the
// runtime recorder (internal/rt) checks simulated executions against it.
package core

import "fmt"

// Kind is the operation kind. PMC has exactly five (Section IV-B).
type Kind uint8

const (
	// KRead retrieves the value of a previously executed write.
	KRead Kind = iota
	// KWrite replaces the value of a location; not necessarily visible
	// to all processes immediately.
	KWrite
	// KAcquire takes an exclusive lock on a location.
	KAcquire
	// KRelease gives up the exclusive lock on a location.
	KRelease
	// KFence adds dependencies to locally executed operations, spanning
	// locations.
	KFence
)

// String returns the paper's one-letter abbreviation.
func (k Kind) String() string {
	switch k {
	case KRead:
		return "r"
	case KWrite:
		return "w"
	case KAcquire:
		return "A"
	case KRelease:
		return "R"
	case KFence:
		return "F"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ProcID identifies a process. InitProc is the pseudo-process ⊥ of
// Definition 3, "equivalent to all processes".
type ProcID int32

// InitProc issues the initial write/release of every location.
const InitProc ProcID = -1

// Loc identifies a shared location (Definition 1's V). NoLoc marks
// operations without a location (fences).
type Loc int32

// NoLoc is the location of fences.
const NoLoc Loc = -1

// Value is the content of a location. The model treats values opaquely.
type Value uint64

// Op is one issued operation (an element of O). An *Op returned by an
// Execution is valid until its operation is undone (Execution.Undo); a
// later Exec reuses it.
type Op struct {
	ID   int
	Kind Kind
	Proc ProcID
	Loc  Loc
	Val  Value
	// IsInit marks the per-location initial operation, which matches
	// both write and release patterns (Definition 3).
	IsInit bool
	// Label is a human-readable tag used in DOT output ("line 2: X=42").
	Label string
}

// String renders the operation in the paper's pattern notation.
func (o *Op) String() string {
	if o.IsInit {
		return fmt.Sprintf("#%d init(v%d=⊥)", o.ID, o.Loc)
	}
	switch o.Kind {
	case KFence:
		return fmt.Sprintf("#%d (F,p%d)", o.ID, o.Proc)
	case KRead:
		return fmt.Sprintf("#%d (r,p%d,v%d)=%d", o.ID, o.Proc, o.Loc, o.Val)
	case KWrite:
		return fmt.Sprintf("#%d (w,p%d,v%d,%d)", o.ID, o.Proc, o.Loc, o.Val)
	}
	return fmt.Sprintf("#%d (%s,p%d,v%d)", o.ID, o.Kind, o.Proc, o.Loc)
}

// Ord is the ordering relation kind attached to a dependency edge.
type Ord uint8

const (
	// OrdLocal is ≺ℓ: visible only to the executing process
	// (Definition 6).
	OrdLocal Ord = iota
	// OrdProgram is ≺P: globally visible, per process, per location
	// (Definition 5).
	OrdProgram
	// OrdSync is ≺S: globally visible, per location, across processes
	// (Definition 7).
	OrdSync
	// OrdFence is ≺F: globally visible, per process, across locations
	// (Definition 8).
	OrdFence
)

// Global reports whether every process observes the edge (Definition 9:
// ≺G = ≺P ∪ ≺S ∪ ≺F).
func (o Ord) Global() bool { return o != OrdLocal }

// String returns the paper's symbol.
func (o Ord) String() string {
	switch o {
	case OrdLocal:
		return "≺l"
	case OrdProgram:
		return "≺P"
	case OrdSync:
		return "≺S"
	case OrdFence:
		return "≺F"
	}
	return fmt.Sprintf("Ord(%d)", uint8(o))
}

// Edge is one dependency: From happened before To under Ord. For OrdLocal
// edges the owning process is the process of both endpoints (Table I only
// creates local edges between operations of one process).
type Edge struct {
	From, To int
	Ord      Ord
}
