package wal

import (
	"fmt"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
)

// Write applies a write root — append or delete — to cat: it is how a
// query changes a relation, on the server and in a DB alike. It builds
// the redo record (for an append, the post-images AppendRecord makes of
// the source that scratch computes from the root's input subtree, whose
// pages go back as soon as the images hold the tuples; for a delete, the
// predicate text), appends it to l when there is a log — the commit
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
		rec = &Record{Type: RecDelete, Rel: root.Rel, Pred: root.Pred.String()}
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
// dst: a physical RecAppendPages carrying full post-images of every
// destination page the append touches, starting at the last partial
// page (or the append point when the last page is full). The images
// are computed with the same fill-then-grow discipline InsertRaw uses,
// so applying the record produces byte-identical pages on a stored and
// on a resident destination alike — and because replay re-installs
// whole slots, it also repairs any slot torn by a crashed eviction
// write-back.
//
// The record is not yet applied: Write logs it (the commit point) and
// then runs Record.Apply, exactly like recovery will. The images are
// fresh pages the record owns, so src may be released once it returns.
func AppendRecord(dst, src *relation.Relation) (*Record, error) {
	rec := &Record{Type: RecAppendPages, Rel: dst.Name(), SchemaHash: heap.SchemaHash(dst.Schema())}
	n := dst.NumPages()
	rec.First = uint64(n)
	if src.Cardinality() == 0 {
		return rec, nil // no-op append: no images, Apply installs nothing
	}
	capacity := (dst.PageSize() - relation.PageHeaderLen) / dst.Schema().TupleLen()
	var cur *relation.Page
	if n > 0 && dst.PageTuples(n-1) < capacity {
		// The append starts by filling the last partial page: its
		// post-image is pre-append content plus new tuples.
		seed, err := dst.CopyPage(n - 1)
		if err != nil {
			return nil, err
		}
		cur = seed
		rec.First = uint64(n - 1)
	}
	appendImage := func() {
		rec.Pages = append(rec.Pages, cur)
		cur = nil
	}
	err := src.EachPage(func(pg *relation.Page) error {
		defer pg.Release()
		var insertErr error
		pg.EachRaw(func(raw []byte) bool {
			if cur == nil {
				cur = relation.MustNewPage(dst.PageSize(), dst.Schema().TupleLen())
			}
			if insertErr = cur.AppendRaw(raw); insertErr != nil {
				return false
			}
			if cur.Full() {
				appendImage()
			}
			return true
		})
		return insertErr
	})
	if err != nil {
		return nil, err
	}
	if cur != nil && !cur.Empty() {
		appendImage()
	}
	return rec, nil
}
