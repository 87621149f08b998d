package wal

import (
	"dfdbm/internal/relation"
)

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
// The record is not yet applied: callers log it (the commit point)
// and then run Record.Apply, exactly like recovery will.
func AppendRecord(dst, src *relation.Relation) (*Record, error) {
	rec := &Record{Type: RecAppendPages, Rel: dst.Name(), SchemaHash: SchemaHash(dst.Schema())}
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
		rec.Pages = append(rec.Pages, cur.Marshal())
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
