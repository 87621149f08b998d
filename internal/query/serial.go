package query

import (
	"fmt"

	"dfdbm/internal/catalog"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// ExecuteSerial runs a bound tree on a single processor, one operator at
// a time, materializing every intermediate relation. It is the reference
// implementation that every concurrent engine's output is checked
// against, and the "single processor" baseline of the paper's Section
// 2.1 discussion.
//
// pageSize sets the page size of intermediate relations; if zero, each
// intermediate inherits the largest page size among its inputs.
func ExecuteSerial(cat *catalog.Catalog, t *Tree, pageSize int) (*relation.Relation, error) {
	results, err := ExecuteSerialAll(cat, t, pageSize)
	if err != nil {
		return nil, err
	}
	return results[t.Root().ID], nil
}

// ExecuteSerialAll runs a bound tree serially and returns the result of
// every node, indexed by node ID. Scan nodes map to their catalog
// relations. The simulators use this to profile per-node cardinalities.
func ExecuteSerialAll(cat *catalog.Catalog, t *Tree, pageSize int) ([]*relation.Relation, error) {
	results := make([]*relation.Relation, t.NumNodes())
	for _, n := range t.Nodes() {
		r, err := executeNode(cat, n, results, pageSize)
		if err != nil {
			return nil, fmt.Errorf("query: node %d (%s): %w", n.ID, n.Kind, err)
		}
		results[n.ID] = r
	}
	return results, nil
}

func executeNode(cat *catalog.Catalog, n *Node, results []*relation.Relation, pageSize int) (*relation.Relation, error) {
	out := func(minTupleLen int, inputs ...*relation.Relation) (int, error) {
		size := pageSize
		if size == 0 {
			for _, in := range inputs {
				if in.PageSize() > size {
					size = in.PageSize()
				}
			}
		}
		if min := relation.PageHeaderLen + minTupleLen; size < min {
			size = min
		}
		if size == 0 {
			return 0, fmt.Errorf("no page size available")
		}
		return size, nil
	}

	// A stored input is read once, into memory: the page loops below walk
	// their inputs' pages directly, the join its inner once per outer
	// page, and a stored page read can fail.
	in := make([]*relation.Relation, len(n.Inputs))
	for i, c := range n.Inputs {
		var err error
		if in[i] = results[c.ID]; in[i].Stored() {
			if in[i], err = in[i].Materialize(); err != nil {
				return nil, err
			}
		}
	}

	switch n.Kind {
	case OpScan:
		return cat.Get(n.Rel)

	case OpRestrict:
		b, err := n.Pred.Bind(in[0].Schema())
		if err != nil {
			return nil, err
		}
		size, err := out(n.Schema().TupleLen(), in[0])
		if err != nil {
			return nil, err
		}
		res, err := relation.New(n.Label(), n.Schema(), size)
		if err != nil {
			return nil, err
		}
		for _, pg := range in[0].Pages() {
			if _, err := relalg.RestrictPage(pg, b, res.InsertRaw); err != nil {
				return nil, err
			}
		}
		return res, nil

	case OpJoin:
		outer, inner := in[0], in[1]
		bound, err := n.Join.Bind(outer.Schema(), inner.Schema())
		if err != nil {
			return nil, err
		}
		size, err := out(n.Schema().TupleLen(), outer, inner)
		if err != nil {
			return nil, err
		}
		res, err := relation.New(n.Label(), n.Schema(), size)
		if err != nil {
			return nil, err
		}
		for _, op := range outer.Pages() {
			for _, ip := range inner.Pages() {
				if _, err := relalg.JoinPages(op, ip, bound, res.InsertRaw); err != nil {
					return nil, err
				}
			}
		}
		return res, nil

	case OpProject:
		proj, err := relalg.NewProjector(in[0].Schema(), n.Cols...)
		if err != nil {
			return nil, err
		}
		size, err := out(n.Schema().TupleLen(), in[0])
		if err != nil {
			return nil, err
		}
		res, err := relation.New(n.Label(), n.Schema(), size)
		if err != nil {
			return nil, err
		}
		ps, d := relalg.NewProjectState(proj), relalg.NewDedup()
		for _, pg := range in[0].Pages() {
			if _, err := ps.ProjectPage(pg, d, res.InsertRaw); err != nil {
				return nil, err
			}
		}
		return res, nil

	case OpAppend:
		dst, err := cat.Get(n.Rel)
		if err != nil {
			return nil, err
		}
		if _, err := relalg.Append(dst, in[0]); err != nil {
			return nil, err
		}
		return dst, nil

	case OpDelete:
		r, err := cat.Get(n.Rel)
		if err != nil {
			return nil, err
		}
		if _, err := relalg.Delete(r, n.Pred); err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown node kind %v", n.Kind)
}
