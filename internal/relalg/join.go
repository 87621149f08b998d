package relalg

import (
	"fmt"
	"sort"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

// JoinPages runs the nested-loops kernel for one (outer page, inner page)
// pair: every outer tuple is compared with every inner tuple, and
// concatenated result tuples are emitted for pairs that satisfy the
// condition. This is exactly the work one IP performs per instruction
// packet of a join, and the unit of cost in the paper's n·m analysis.
// It is the serial reference, and a JoinState's kernel for conditions
// with no hashable equality term; its hash kernel writes its results in
// place and is checked against this.
//
// The emitted raw slice is reused between calls; receivers must copy.
func JoinPages(outer, inner *relation.Page, cond *pred.BoundJoin, emit EmitFunc) (int, error) {
	emitted, _, err := joinPagesNested(outer, inner, cond, nil, emit)
	return emitted, err
}

// joinPagesNested is the nested-loops kernel over a caller-owned scratch
// buffer; it returns the (possibly grown) buffer for reuse.
func joinPagesNested(outer, inner *relation.Page, cond *pred.BoundJoin, buf []byte, emit EmitFunc) (int, []byte, error) {
	no, ni := outer.TupleCount(), inner.TupleCount()
	if cap(buf) == 0 {
		buf = make([]byte, 0, outer.TupleLen()+inner.TupleLen())
	}
	emitted := 0
	for i := 0; i < no; i++ {
		oraw := outer.RawTuple(i)
		for j := 0; j < ni; j++ {
			iraw := inner.RawTuple(j)
			ok, err := cond.EvalPair(oraw, iraw)
			if err != nil {
				return emitted, buf, err
			}
			if !ok {
				continue
			}
			buf = append(append(buf[:0], oraw...), iraw...)
			if err := emit(buf); err != nil {
				return emitted, buf, err
			}
			emitted++
		}
	}
	return emitted, buf, nil
}

// JoinSchema returns the result schema of joining outer with inner:
// outer's attributes followed by inner's, inner names prefixed with the
// inner relation's name on collision.
func JoinSchema(outer, inner *relation.Relation) (*relation.Schema, error) {
	return outer.Schema().Concat(inner.Schema(), inner.Name())
}

// NestedLoopsJoin joins two whole relations with the O(n·m) nested-loops
// algorithm — the algorithm the paper identifies as "the best algorithm
// for execution of the join operator on multiple processors". This
// serial form is the reference implementation and the uniprocessor
// baseline.
func NestedLoopsJoin(outer, inner *relation.Relation, cond pred.JoinCond, name string) (*relation.Relation, error) {
	bound, err := cond.Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return nil, err
	}
	schema, err := JoinSchema(outer, inner)
	if err != nil {
		return nil, err
	}
	out, err := relation.New(name, schema, pagedSizeFor(outer, inner, schema))
	if err != nil {
		return nil, err
	}
	for _, op := range outer.Pages() {
		for _, ip := range inner.Pages() {
			if _, err := JoinPages(op, ip, bound, out.InsertRaw); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// pagedSizeFor picks a page size for a join result: the larger of the
// operand page sizes, grown if necessary to fit one result tuple.
func pagedSizeFor(outer, inner *relation.Relation, result *relation.Schema) int {
	size := outer.PageSize()
	if inner.PageSize() > size {
		size = inner.PageSize()
	}
	if min := relation.PageHeaderLen + result.TupleLen(); size < min {
		size = min
	}
	return size
}

// SortMergeJoin joins two relations with the O(n log n) sorted-merge
// algorithm of Blasgen and Eswaran. The condition must contain at least
// one equality term, which becomes the sort key; remaining terms are
// applied as a residual filter. On a single processor this is the
// fastest of the classical join algorithms — the paper's Section 2.1
// contrast with nested loops.
func SortMergeJoin(outer, inner *relation.Relation, cond pred.JoinCond, name string) (*relation.Relation, error) {
	bound, err := cond.Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return nil, err
	}
	li, ri, ok := bound.FirstEqui()
	if !ok {
		return nil, fmt.Errorf("relalg: sort-merge join needs an equality term in %q", cond)
	}
	schema, err := JoinSchema(outer, inner)
	if err != nil {
		return nil, err
	}
	out, err := relation.New(name, schema, pagedSizeFor(outer, inner, schema))
	if err != nil {
		return nil, err
	}

	left, err := sortedRaws(outer, li)
	if err != nil {
		return nil, err
	}
	right, err := sortedRaws(inner, ri)
	if err != nil {
		return nil, err
	}

	buf := make([]byte, 0, outer.Schema().TupleLen()+inner.Schema().TupleLen())
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		cmp, err := left[i].key.Compare(right[j].key)
		if err != nil {
			return nil, err
		}
		switch {
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			// Find the extent of the equal-key group on each side and
			// cross the groups, applying the full condition (residual
			// terms included).
			iEnd := i
			for iEnd < len(left) && mustEqual(left[iEnd].key, left[i].key) {
				iEnd++
			}
			jEnd := j
			for jEnd < len(right) && mustEqual(right[jEnd].key, right[j].key) {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					ok, err := bound.EvalPair(left[a].raw, right[b].raw)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
					buf = buf[:0]
					buf = append(buf, left[a].raw...)
					buf = append(buf, right[b].raw...)
					if err := out.InsertRaw(buf); err != nil {
						return nil, err
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out, nil
}

type keyedRaw struct {
	key relation.Value
	raw []byte
}

func mustEqual(a, b relation.Value) bool {
	c, err := a.Compare(b)
	return err == nil && c == 0
}

// sortedRaws materializes the raw tuples of r sorted by attribute attr.
func sortedRaws(r *relation.Relation, attr int) ([]keyedRaw, error) {
	s := r.Schema()
	out := make([]keyedRaw, 0, r.Cardinality())
	var failed error
	r.EachRaw(func(raw []byte) bool {
		v, err := relation.DecodeValue(s, raw, attr)
		if err != nil {
			failed = err
			return false
		}
		out = append(out, keyedRaw{key: v, raw: append([]byte(nil), raw...)})
		return true
	})
	if failed != nil {
		return nil, failed
	}
	sort.SliceStable(out, func(a, b int) bool {
		c, _ := out[a].key.Compare(out[b].key)
		return c < 0
	})
	return out, nil
}
