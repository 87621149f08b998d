package relation

import (
	"fmt"
	"sort"
)

// Relation is a heap relation: a named schema plus an ordered list of
// pages. It is the at-rest form of a relation; in flight, a relation
// is a stream of pages. By default the pages are resident in memory;
// SetStore attaches a disk-backed PageStore (internal/heap) and the
// relation becomes a view over buffer-pool frames instead.
type Relation struct {
	name     string
	schema   *Schema
	pageSize int
	pages    []*Page
	store    PageStore // nil = resident
}

// New creates an empty relation with the given name, schema, and page
// size.
func New(name string, schema *Schema, pageSize int) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	if err := CheckPageGeometry(pageSize, schema.TupleLen()); err != nil {
		return nil, err
	}
	return &Relation{name: name, schema: schema, pageSize: pageSize}, nil
}

// MustNew is New but panics on error.
func MustNew(name string, schema *Schema, pageSize int) *Relation {
	r, err := New(name, schema, pageSize)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// PageSize returns the page size used by the relation.
func (r *Relation) PageSize() int { return r.pageSize }

// NumPages returns the number of pages in the relation.
func (r *Relation) NumPages() int {
	if r.store != nil {
		return r.store.NumPages()
	}
	return len(r.pages)
}

// Page returns page i. The page is shared, not copied, and the caller
// must not release it. For stored relations the page is read through the
// buffer pool — valid for reading for as long as the caller keeps it,
// because the reference it came with is never released (the page
// survives its frame's eviction and is the collector's afterwards) —
// but an I/O failure panics; error-aware callers should walk with
// EachPage instead.
func (r *Relation) Page(i int) *Page {
	if r.store == nil {
		return r.pages[i]
	}
	p, err := r.readOne(i)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Pages returns the page list. For resident relations the slice is
// shared, not copied; for stored relations every page is materialized
// through the buffer pool (see Page for the error contract) — hot
// paths should stream with EachPage instead.
func (r *Relation) Pages() []*Page {
	if r.store == nil {
		return r.pages
	}
	n := r.store.NumPages()
	out := make([]*Page, n)
	for i := 0; i < n; i++ {
		out[i] = r.Page(i)
	}
	return out
}

// Cardinality returns the total number of tuples.
func (r *Relation) Cardinality() int {
	if r.store != nil {
		return r.store.Cardinality()
	}
	n := 0
	for _, p := range r.pages {
		n += p.TupleCount()
	}
	return n
}

// ByteSize returns the total payload-plus-header bytes of all pages —
// the relation's footprint in the storage hierarchy.
func (r *Relation) ByteSize() int {
	if r.store != nil {
		return r.store.NumPages()*PageHeaderLen + r.store.Cardinality()*r.schema.TupleLen()
	}
	n := 0
	for _, p := range r.pages {
		n += p.WireSize()
	}
	return n
}

// Insert appends a tuple, creating a new page when the last one is full.
func (r *Relation) Insert(t Tuple) error {
	raw, err := EncodeTuple(nil, r.schema, t)
	if err != nil {
		return err
	}
	return r.InsertRaw(raw)
}

// InsertRaw appends an already-encoded tuple.
func (r *Relation) InsertRaw(raw []byte) error {
	if r.store != nil {
		return r.errStored()
	}
	if len(r.pages) == 0 || r.pages[len(r.pages)-1].Full() {
		p, err := NewPage(r.pageSize, r.schema.TupleLen())
		if err != nil {
			return err
		}
		r.pages = append(r.pages, p)
	}
	return r.pages[len(r.pages)-1].AppendRaw(raw)
}

// AppendPage appends an entire page to the relation, which retains it:
// it takes a reference of its own (Page.Retain) and never releases it,
// so the caller's reference stays the caller's to release. The page must
// hold tuples of the schema's length.
func (r *Relation) AppendPage(p *Page) error {
	if err := r.LendPage(p); err != nil {
		return err
	}
	p.Retain()
	return nil
}

// LendPage appends a page its owner goes on owning: the relation reads
// it but holds no reference. It is for a scratch relation that is built,
// read once and dropped — the owner releases the page only after that.
func (r *Relation) LendPage(p *Page) error {
	if p.TupleLen() != r.schema.TupleLen() {
		return fmt.Errorf("relation: page holds %d-byte tuples, relation %q needs %d", p.TupleLen(), r.name, r.schema.TupleLen())
	}
	if r.store != nil {
		return r.errStored()
	}
	r.pages = append(r.pages, p)
	return nil
}

// errStored refuses a direct append to a stored relation. Its writes are
// the whole-page images a WAL record installs once the log holds it
// (InstallPage, then Truncate): a write the log never saw could not be
// replayed, and an eviction could make part of it durable.
func (r *Relation) errStored() error {
	return fmt.Errorf("relation: append to stored relation %q (apply through the WAL)", r.name)
}

// errStopEach is EachPage's internal early-stop sentinel.
var errStopEach = fmt.Errorf("relation: stop iteration")

// Each calls fn for every tuple in page order, stopping early if fn
// returns false.
func (r *Relation) Each(fn func(t Tuple) bool) error {
	err := r.EachPage(func(p *Page) error {
		defer p.Release()
		n := p.TupleCount()
		for i := 0; i < n; i++ {
			t, err := p.Tuple(i, r.schema)
			if err != nil {
				return err
			}
			if !fn(t) {
				return errStopEach
			}
		}
		return nil
	})
	if err == errStopEach {
		return nil
	}
	return err
}

// EachRaw calls fn for every encoded tuple in page order, stopping early
// if fn returns false. raw aliases the page, which is released once fn
// has seen its tuples: fn copies what it keeps.
func (r *Relation) EachRaw(fn func(raw []byte) bool) {
	_ = r.EachPage(func(p *Page) error {
		defer p.Release()
		stop := false
		p.EachRaw(func(raw []byte) bool {
			if !fn(raw) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return errStopEach
		}
		return nil
	})
}

// Tuples materializes every tuple. Intended for tests and small results.
func (r *Relation) Tuples() ([]Tuple, error) {
	out := make([]Tuple, 0, r.Cardinality())
	err := r.Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out, err
}

// Clone returns a fully resident deep copy of the relation under a new
// name.
func (r *Relation) Clone(name string) *Relation {
	out, err := r.Materialize()
	if err != nil {
		// Only reachable for a stored relation with failing I/O; Clone
		// has no error return (see Materialize for the checked form).
		panic(err)
	}
	out.name = name
	return out
}

// SortedKeys returns the multiset of encoded tuples, sorted
// lexicographically. Two relations are multiset-equal iff their
// SortedKeys are equal; tests use this to compare results across engines
// that emit tuples in different orders.
func (r *Relation) SortedKeys() []string {
	keys := make([]string, 0, r.Cardinality())
	r.EachRaw(func(raw []byte) bool {
		keys = append(keys, string(raw))
		return true
	})
	sort.Strings(keys)
	return keys
}

// EqualMultiset reports whether r and o contain the same multiset of
// encoded tuples (schema byte-layouts must match for this to be
// meaningful).
func (r *Relation) EqualMultiset(o *Relation) bool {
	a, b := r.SortedKeys(), o.SortedKeys()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
