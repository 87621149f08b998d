package wal

import (
	"fmt"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/pred"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
)

// Write applies a write root — append or delete — to cat: it is how a
// query changes a relation, on the server and in a DB alike. It builds
// the redo record (for an append, the post-images AppendRecord makes of
// the source that scratch computes from the root's input subtree, whose
// pages go back as soon as the images hold the tuples; for a delete, the
// survivors' post-images DeleteRecord makes), appends it to l when there
// is a log — the commit
// point: the write may be acknowledged once Write returns — and applies
// it with Record.Apply, exactly as recovery will. With no log a stored
// destination is refused: a write the log never saw could not be
// replayed, and an eviction could make part of it durable. The caller
// excludes every other reader and writer of the destination for the
// whole call (the server's admission footprint), which also keeps log
// order equal to apply order per relation. Write returns the written
// relation.
func Write(l *Log, cat *catalog.Catalog, root *query.Node,
	scratch func(*query.Tree) (*relation.Relation, func(), error)) (*relation.Relation, error) {
	dst, err := cat.Get(root.Rel)
	if err != nil {
		return nil, err
	}
	if l == nil && dst.Stored() {
		return nil, fmt.Errorf("wal: %s on stored relation %q with no log (apply through the WAL)", root.Kind, root.Rel)
	}
	var rec *Record
	switch root.Kind {
	case query.OpAppend:
		// The input subtree runs as a pure query of its own; binding the
		// whole tree already checked it against the destination.
		srcTree, err := query.Bind(root.Inputs[0], cat)
		if err != nil {
			return nil, err
		}
		src, release, err := scratch(srcTree)
		if err != nil {
			return nil, err
		}
		rec, err = AppendRecord(dst, src)
		release() // the images are copies: the source is dead either way
		if err != nil {
			return nil, err
		}
	case query.OpDelete:
		if rec, err = DeleteRecord(dst, root.Pred); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: %s is not a write", root.Kind)
	}
	if l != nil {
		if _, err := l.Append(rec); err != nil {
			return nil, fmt.Errorf("wal: append: %w", err)
		}
	}
	rel, err := rec.Apply(cat)
	if err != nil && l != nil {
		// Only reachable through a bug, since binding pre-validated the
		// write: the record is durable and recovery will include it.
		return nil, fmt.Errorf("wal: logged write failed to apply (recovery will replay it): %w", err)
	}
	return rel, err
}

// AppendRecord builds the redo record for appending src's tuples to
// dst: a RecPages carrying full post-images of every destination page
// the append touches, starting at the last partial page (or the append
// point when the last page is full). The images are packed by InsertRaw
// itself, so applying the record produces byte-identical pages on a
// stored and on a resident destination alike — and because replay
// re-installs whole slots, it also repairs any slot torn by a crashed
// eviction write-back.
//
// The record is not yet applied: Write logs it (the commit point) and
// then runs Record.Apply, exactly like recovery will. The images are
// fresh pages the record owns, so src may be released once it returns.
func AppendRecord(dst, src *relation.Relation) (*Record, error) {
	n := dst.NumPages()
	rec, img := newRecord(dst, n)
	if src.Cardinality() == 0 {
		return rec, nil // no-op append: no images, Apply installs nothing
	}
	if n > 0 && dst.PageTuples(n-1) < (dst.PageSize()-relation.PageHeaderLen)/dst.Schema().TupleLen() {
		// The append starts by filling the last partial page: its
		// post-image is pre-append content plus new tuples.
		seed, err := dst.CopyPage(n - 1)
		if err == nil {
			err = img.LendPage(seed)
		}
		if err != nil {
			return nil, err
		}
		rec.First = uint64(n - 1)
	}
	// A constant binds without error; it matches no tuple, so every
	// source tuple is kept.
	none, _ := pred.FalsePred.Bind(nil)
	err := src.EachPage(func(pg *relation.Page) error {
		defer pg.Release()
		_, err := sift(img, pg, none)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.Pages = img.Pages()
	return rec, nil
}

// DeleteRecord builds the redo record for deleting the tuples of dst
// that satisfy p: a RecPages whose First is the first page that loses a
// tuple or is not full, and whose images are the surviving tuples from
// there on, in slot order, packed by InsertRaw. The pages before First
// are full and keep every tuple, so applying the record — install the
// images, end the relation after them — leaves the pages a compacting
// delete (relalg.Delete) leaves. A delete that removes nothing is a
// record with no images at the relation's end. As with AppendRecord,
// the images are fresh pages the record owns and nothing is applied yet.
func DeleteRecord(dst *relation.Relation, p pred.Pred) (*Record, error) {
	b, err := p.Bind(dst.Schema())
	if err != nil {
		return nil, err
	}
	n := dst.NumPages()
	rec, img := newRecord(dst, n)
	removed, i := 0, 0
	err = dst.EachPage(func(pg *relation.Page) error {
		defer func() { i++; pg.Release() }()
		if rec.First == uint64(n) { // no page has changed yet
			if m, err := sift(nil, pg, b); err == nil && m == 0 && pg.Full() {
				return nil // a full page that keeps every tuple stays as it is
			}
			rec.First = uint64(i)
		}
		m, err := sift(img, pg, b)
		removed += m
		return err
	})
	if err != nil {
		return nil, err
	}
	if removed == 0 {
		rec.First = uint64(n)
	} else {
		rec.Pages = img.Pages()
	}
	return rec, nil
}

// newRecord starts a pages record for dst whose images begin at slot
// first, and the scratch relation its images are packed into.
func newRecord(dst *relation.Relation, first int) (*Record, *relation.Relation) {
	rec := &Record{Type: RecPages, Rel: dst.Name(), SchemaHash: heap.SchemaHash(dst.Schema()), First: uint64(first)}
	return rec, relation.MustNew(dst.Name(), dst.Schema(), dst.PageSize())
}

// sift inserts into img, when there is one, the tuples of pg that b
// does not match, and returns how many b matched.
func sift(img *relation.Relation, pg *relation.Page, b pred.Bound) (int, error) {
	matched := 0
	var err error
	pg.EachRaw(func(raw []byte) bool {
		var match bool
		if match, err = b.Eval(raw); err == nil {
			switch {
			case match:
				matched++
			case img != nil:
				err = img.InsertRaw(raw)
			}
		}
		return err == nil
	})
	return matched, err
}
