// Package relalg implements the relational-algebra operator kernels that
// the machine's instruction processors execute: restrict, nested-loops
// join, sort-merge join (the uniprocessor baseline of Blasgen and
// Eswaran), project with duplicate elimination, append, and delete.
//
// Each operator has one page-at-a-time kernel (what one IP does to the
// data pages in one instruction packet) that the engines run: the
// batched RestrictState, ProjectState and JoinState. The scalar
// RestrictPage and JoinPages are the reference they are checked
// against, and what the serial executor (query.ExecuteSerial) runs.
package relalg

import (
	"fmt"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

// EmitFunc receives the encoded bytes of one result tuple. The slice may
// alias internal buffers: implementations must copy if they retain it.
// (relation.Page.AppendRaw and Paginator.Add copy.)
type EmitFunc func(raw []byte) error

// RestrictPage applies a bound predicate to every tuple of a page,
// emitting those that satisfy it. It returns the number of tuples
// emitted. This is the kernel an IP runs for a restrict instruction
// packet.
func RestrictPage(p *relation.Page, b pred.Bound, emit EmitFunc) (int, error) {
	n := p.TupleCount()
	kept := 0
	for i := 0; i < n; i++ {
		raw := p.RawTuple(i)
		ok, err := b.Eval(raw)
		if err != nil {
			return kept, err
		}
		if !ok {
			continue
		}
		if err := emit(raw); err != nil {
			return kept, err
		}
		kept++
	}
	return kept, nil
}

// Append adds every tuple of src to dst. The schemas must have identical
// byte layout. It returns the number of tuples appended.
func Append(dst, src *relation.Relation) (int, error) {
	if dst.Schema().TupleLen() != src.Schema().TupleLen() {
		return 0, fmt.Errorf("relalg: append of %s into %s: tuple layouts differ", src.Name(), dst.Name())
	}
	n := 0
	var failed error
	src.EachRaw(func(raw []byte) bool {
		if err := dst.InsertRaw(raw); err != nil {
			failed = err
			return false
		}
		n++
		return true
	})
	return n, failed
}

// Delete removes every tuple of r satisfying p, leaving every page but
// the last full, and returns the number of tuples removed.
func Delete(r *relation.Relation, p pred.Pred) (int, error) {
	if r.Stored() {
		// A disk-backed relation changes only through WAL records
		// (wal.DeleteRecord builds a delete's). Replacing *r here would
		// silently detach the store.
		return 0, fmt.Errorf("relalg: in-place delete on stored relation %q (apply through the WAL)", r.Name())
	}
	b, err := pred.Not{Kid: p}.Bind(r.Schema())
	if err != nil {
		return 0, err
	}
	keep, err := relation.New(r.Name(), r.Schema(), r.PageSize())
	if err != nil {
		return 0, err
	}
	for _, page := range r.Pages() {
		if _, err := RestrictPage(page, b, keep.InsertRaw); err != nil {
			return 0, err
		}
	}
	removed := r.Cardinality() - keep.Cardinality()
	*r = *keep // filled by InsertRaw: already compact
	return removed, nil
}
