// Package direct simulates DIRECT, the centralized-control MIMD database
// machine of DeWitt [1, 2], executing the paper's benchmark under the
// alternative operand granularities of Section 3. It is the instrument
// that regenerates Figure 3.1 (page-level versus relation-level
// execution time as a function of the number of processors) and Figure
// 4.2 (average bandwidth demand at each level of the storage hierarchy).
//
// The simulator is profile-driven: each query is executed once by the
// serial reference executor to capture exact per-node cardinalities, and
// the discrete-event simulation then moves page tokens with the timing
// of the paper's hardware (LSI-11 processors, IBM 3330 drives, a CCD
// disk cache behind a cross-bar). This mirrors the paper's own
// methodology — Figures 3.1 and 4.2 were produced by simulation, not by
// the prototype.
package direct

import (
	"fmt"

	"dfdbm/internal/catalog"
	"dfdbm/internal/query"
)

// InputRef describes one operand of a profiled node.
type InputRef struct {
	// Node is the profile index of the producing node, or -1 when the
	// operand is a source relation read from mass storage.
	Node int
	// Rel is the source relation name when Node == -1.
	Rel string
	// Pages and Tuples are the operand's size at the profile page size.
	Pages  int
	Tuples int
}

// NodeProfile is the execution profile of one query-tree node.
type NodeProfile struct {
	ID        int
	Kind      query.OpKind
	NumInputs int
	Inputs    [2]InputRef
	// OutTuples and OutPages size the node's result at the profile page
	// size; OutBytesPerTuple is the result tuple width.
	OutTuples        int
	OutPages         int
	OutBytesPerTuple int
}

// QueryProfile is the profile of one query: operator nodes in post
// order (scans are folded into their consumers' InputRefs).
type QueryProfile struct {
	Nodes []NodeProfile
	// PageSize is the page size the profile was computed for; Run
	// rejects a configuration whose hardware page size differs.
	PageSize int
}

// Root returns the index of the root node (the last in post order).
func (q QueryProfile) Root() int { return len(q.Nodes) - 1 }

// pagesFor returns how many pageSize-byte pages hold n tuples of the
// given width.
func pagesFor(n, tupleLen, pageSize int) int {
	if n == 0 {
		return 0
	}
	cap := capOf(tupleLen, pageSize)
	return (n + cap - 1) / cap
}

func capOf(tupleLen, pageSize int) int {
	cap := (pageSize - pageHeaderLen) / tupleLen
	if cap < 1 {
		cap = 1
	}
	return cap
}

// pageHeaderLen mirrors relation.PageHeaderLen without importing the
// storage layer into the timing model.
const pageHeaderLen = 16

// Profile executes a bound query serially and extracts the cardinality
// profile used by the simulator, sized for the given page size.
func Profile(cat *catalog.Catalog, t *query.Tree, pageSize int) (QueryProfile, error) {
	if pageSize <= pageHeaderLen {
		return QueryProfile{}, fmt.Errorf("direct: page size %d too small", pageSize)
	}
	results, err := query.ExecuteSerialAll(cat, t, 0)
	if err != nil {
		return QueryProfile{}, err
	}

	prof := QueryProfile{PageSize: pageSize}
	// Map tree node ID -> profile index (operator nodes only).
	profIdx := make(map[int]int)

	for _, n := range t.Nodes() {
		if n.Kind == query.OpScan {
			continue
		}
		np := NodeProfile{
			ID:        len(prof.Nodes),
			Kind:      n.Kind,
			NumInputs: len(n.Inputs),
		}
		for i, in := range n.Inputs {
			rel := results[in.ID]
			ref := InputRef{
				Node:   -1,
				Pages:  pagesFor(rel.Cardinality(), rel.Schema().TupleLen(), pageSize),
				Tuples: rel.Cardinality(),
			}
			if in.Kind == query.OpScan {
				ref.Rel = in.Rel
			} else {
				ref.Node = profIdx[in.ID]
			}
			np.Inputs[i] = ref
		}
		out := results[n.ID]
		np.OutTuples = out.Cardinality()
		np.OutBytesPerTuple = out.Schema().TupleLen()
		np.OutPages = pagesFor(np.OutTuples, np.OutBytesPerTuple, pageSize)
		profIdx[n.ID] = np.ID
		prof.Nodes = append(prof.Nodes, np)
	}

	if len(prof.Nodes) == 0 {
		// A bare scan: model it as a restrict that keeps everything.
		root := t.Root()
		rel := results[root.ID]
		prof.Nodes = append(prof.Nodes, NodeProfile{
			ID:        0,
			Kind:      query.OpRestrict,
			NumInputs: 1,
			Inputs: [2]InputRef{{
				Node:   -1,
				Rel:    root.Rel,
				Pages:  pagesFor(rel.Cardinality(), rel.Schema().TupleLen(), pageSize),
				Tuples: rel.Cardinality(),
			}},
			OutTuples:        rel.Cardinality(),
			OutBytesPerTuple: rel.Schema().TupleLen(),
			OutPages:         pagesFor(rel.Cardinality(), rel.Schema().TupleLen(), pageSize),
		})
	}
	return prof, nil
}

// ProfileAll profiles a set of bound queries.
func ProfileAll(cat *catalog.Catalog, trees []*query.Tree, pageSize int) ([]QueryProfile, error) {
	out := make([]QueryProfile, len(trees))
	for i, t := range trees {
		p, err := Profile(cat, t, pageSize)
		if err != nil {
			return nil, fmt.Errorf("direct: profiling query %d: %w", i+1, err)
		}
		out[i] = p
	}
	return out, nil
}
