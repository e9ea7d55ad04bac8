// Package except implements the paper's exception model (§3.1–3.2): exception
// identifiers, raised-exception instances, and exception graphs — directed
// acyclic graphs in which a parent ("resolving") exception covers its
// descendants. Concurrently raised exceptions are resolved to the root of the
// smallest subtree containing all of them (Campbell & Randell's exception-tree
// rule generalised to DAGs), which is exactly what the distributed resolution
// protocols in internal/resolve compute.
package except

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"time"
)

// ID names an exception within one action's exception context. IDs are
// compared literally; the empty ID is reserved for "no exception" (the
// paper's φ).
type ID string

// Reserved identifiers from the paper's model.
const (
	// None is φ: the absence of an exception to signal.
	None ID = ""

	// Universal is the root exception present in every graph: a raised
	// universal exception "usually leads to the signalling of an undo or
	// failure exception to the enclosing action" (§3.2).
	Universal ID = "universal"

	// Undo is µ: the action was aborted and all its effects were undone.
	Undo ID = "µ"

	// Failure is ƒ: the action was aborted but its effects may not have
	// been undone completely.
	Failure ID = "ƒ"

	// Abortion is the exception raised inside a nested action when its
	// enclosing action requires it to abort (§3.3.1).
	Abortion ID = "abortion"
)

// IsInterface reports whether id is one of the pre-defined interface
// exceptions (µ, ƒ) that require final-stage coordination when signalled.
func IsInterface(id ID) bool { return id == Undo || id == Failure }

// Raised is one occurrence of an exception inside an action.
type Raised struct {
	ID     ID
	Origin string        // identifier of the thread that raised it
	Info   string        // free-form diagnostic detail
	At     time.Duration // clock timestamp of the raise
}

// IDsOf extracts the distinct exception IDs from a set of raised instances,
// sorted for determinism.
func IDsOf(raised []Raised) []ID {
	if len(raised) == 0 {
		return nil
	}
	ids := make([]ID, len(raised))
	for i, r := range raised {
		ids[i] = r.ID
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Combined returns the canonical ID for the resolving exception covering the
// given exceptions, as used by the automatic graph generator: the sorted
// member names joined by "+" (the paper writes e1∩e2).
func Combined(ids ...ID) ID {
	ss := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = string(id)
	}
	sort.Strings(ss)
	return ID(strings.Join(ss, "+"))
}

// Errors reported by graph construction and resolution.
var (
	ErrEmptyGraph    = errors.New("except: graph has no nodes")
	ErrCycle         = errors.New("except: graph contains a cycle")
	ErrMultipleRoots = errors.New("except: graph has more than one root")
	ErrNoRoot        = errors.New("except: graph has no root")
	ErrUnreachable   = errors.New("except: node not covered by the root")
	ErrDuplicateEdge = errors.New("except: duplicate edge")
	ErrSelfEdge      = errors.New("except: self edge")
	ErrReservedID    = errors.New("except: reserved identifier used as graph node")
	ErrNothingRaised = errors.New("except: no exceptions to resolve")
)
