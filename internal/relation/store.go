package relation

import "fmt"

// PageStore is the disk-backed page source a Relation can be attached
// to (SetStore): the paper's mass-storage level, reached through the
// disk-cache level (a buffer pool). A stored relation keeps no resident
// pages; every page access reads through the store's buffer pool and
// every mutation goes through Install, so the relation's
// logical content is byte-identical to the resident form by
// construction. The unit of access is a run of consecutive pages — the
// paper moves operands a page at a time between cache and mass storage,
// and a run is what one visit to the cache and one disk read can bring;
// a single page is a run of one.
//
// Implementations live in internal/heap; this interface exists so the
// relation package (and everything above it) needs no heap import.
type PageStore interface {
	// NumPages returns the logical page count.
	NumPages() int
	// PageTuples returns the tuple count of page i without reading its
	// payload.
	PageTuples(i int) int
	// Cardinality returns the total tuple count across all pages.
	Cardinality() int
	// ReadRun reads pages first, first+1, ... into dst and returns how
	// many: at least one when err is nil, at most len(dst), and fewer
	// when the relation ends or the store will not read further ahead
	// (its budget of frames being loaded; a page another reader is still
	// loading). The pages are shared and read-only. Each comes with a
	// reference (Page.Retain) that is the caller's to pass on: whoever
	// reads the page last releases it, and a page nobody releases is the
	// collector's. The reference is all the caller holds: the store may
	// evict the page's frame at once, and the page outlives it. On error
	// no reference is handed out.
	ReadRun(first int, dst []*Page) (int, error)
	// Install overwrites page i (or appends it when i == NumPages)
	// with a full post-image, dirty in the pool, which retains it: the
	// caller must not write to the page again. It is the one mutation
	// primitive: WAL replay and the live write path both install
	// whole-page images through it, which makes redo idempotent and
	// torn-write-proof.
	Install(i int, p *Page) error
	// Rewrite atomically replaces the entire stored content with the
	// pages of resident (same name and schema), advancing the store's
	// base LSN to lsn. Deletes compact through this path.
	Rewrite(resident *Relation, lsn uint64) error
	// BaseLSN is the store's recovery horizon: every WAL record with
	// LSN <= BaseLSN() is already reflected in the durable file, so
	// replay skips it.
	BaseLSN() uint64
}

// SetStore attaches (or with nil detaches) a page store. Attaching
// drops any resident pages: the store is authoritative.
func (r *Relation) SetStore(ps PageStore) {
	r.store = ps
	if ps != nil {
		r.pages = nil
	}
}

// Stored reports whether the relation is disk-backed.
func (r *Relation) Stored() bool { return r.store != nil }

// StoreBaseLSN returns the attached store's recovery horizon, 0 for
// resident relations.
func (r *Relation) StoreBaseLSN() uint64 {
	if r.store == nil {
		return 0
	}
	return r.store.BaseLSN()
}

// PageTuples returns the tuple count of page i without materializing
// its payload (stored relations keep per-page counts in file
// metadata).
func (r *Relation) PageTuples(i int) int {
	if r.store != nil {
		return r.store.PageTuples(i)
	}
	return r.pages[i].TupleCount()
}

// readOne reads page i alone, a run of one, with its reference.
func (r *Relation) readOne(i int) (*Page, error) {
	var one [1]*Page
	if _, err := r.store.ReadRun(i, one[:]); err != nil {
		return nil, fmt.Errorf("relation %q: page %d: %w", r.name, i, err)
	}
	return one[0], nil
}

// CopyPage returns a deep copy of page i, read through the store when
// the relation is disk-backed — the error-returning counterpart of
// Page(i).Clone().
func (r *Relation) CopyPage(i int) (*Page, error) {
	if r.store == nil {
		return r.pages[i].Clone(), nil
	}
	p, err := r.readOne(i)
	if err != nil {
		return nil, err
	}
	out := p.Clone()
	p.Release()
	return out, nil
}

// MaxRun is the most pages one run carries: one hand-off from a walk to
// its consumer, one instruction packet's operands in the engine — small
// enough that the packets at the tail of a query still spread over the
// workers. A full run of 2 KiB base pages is 64 KiB, one page of the
// engine's serving size (core.DefaultPageSize).
const MaxRun = 32

// EachRun calls fn for every run of consecutive pages, in order. It is the
// one place a run's length is decided: 1, 2, 4 … MaxRun pages, then MaxRun
// to the end, for resident and stored relations alike — so a walk that
// stops at its first page has touched one page, and a long one costs its
// consumer one hand-off per MaxRun pages. A resident run is a view of the
// relation's page list, each page retained for fn; a stored run is filled
// by as many ReadRun calls as the store grants (its budget clips a visit,
// not the run). Either way every page reaches fn with a reference of its
// own, which fn releases — or hands to whoever will — once it has read
// the page: the free list's one rule, for every page of every walk. An
// fn that never releases leaks nothing but costs a stored relation a
// fresh page per miss. fn must not keep the run slice or write to its pages. A
// non-nil error from fn (or from the store) stops the walk and is
// returned; on a store error the references already collected for the
// run are released. A stored run is read into buf, which the caller
// lends for the walk; a nil buf costs a stored walk one allocation, as
// it escapes through the store.
func (r *Relation) EachRun(buf *[MaxRun]*Page, fn func(run []*Page) error) error {
	if r.store == nil {
		buf = nil
	} else if buf == nil {
		buf = new([MaxRun]*Page)
	}
	n := r.NumPages()
	for i, want := 0, 1; i < n; want = min(2*want, MaxRun) {
		run, err := r.run(buf, i, min(i+want, n))
		if err == nil {
			err = fn(run)
		}
		if err != nil {
			return err
		}
		i += len(run)
	}
	return nil
}

// run returns pages i … j-1 with a reference each: a view of the page
// list, or for a stored relation buf, filled by as many ReadRun calls as
// the store grants. On error the pages already read are released.
func (r *Relation) run(buf *[MaxRun]*Page, i, j int) ([]*Page, error) {
	if buf == nil {
		run := r.pages[i:j:j]
		for _, p := range run {
			p.Retain()
		}
		return run, nil
	}
	run := buf[:j-i]
	for k := 0; k < len(run); {
		got, err := r.store.ReadRun(i+k, run[k:])
		if err != nil {
			ReleaseAll(run[:k])
			return nil, fmt.Errorf("relation %q: page %d: %w", r.name, i+k, err)
		}
		k += got
	}
	return run, nil
}

// EachPage calls fn for every page in order: a page-at-a-time view of
// EachRun, with its reference contract. A non-nil error from fn (or from
// the store) stops the walk and is returned.
func (r *Relation) EachPage(fn func(p *Page) error) error {
	return r.EachRun(nil, func(run []*Page) error {
		for _, p := range run {
			if err := fn(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// InstallPage overwrites page i with a full post-image, or appends it
// when i == NumPages(). It is how WAL replay and the durable write
// path apply append effects: whole-page images are idempotent to
// re-apply and repair torn in-place writes. The page is retained, as
// AppendPage retains it, and the page it replaces released.
func (r *Relation) InstallPage(i int, p *Page) error {
	if p.TupleLen() != r.schema.TupleLen() {
		return fmt.Errorf("relation: page holds %d-byte tuples, relation %q needs %d", p.TupleLen(), r.name, r.schema.TupleLen())
	}
	if r.store != nil {
		return r.store.Install(i, p)
	}
	switch {
	case i < len(r.pages):
		p.Retain()
		r.pages[i].Release()
		r.pages[i] = p
	case i == len(r.pages):
		p.Retain()
		r.pages = append(r.pages, p)
	default:
		return fmt.Errorf("relation %q: install page %d beyond %d pages", r.name, i, len(r.pages))
	}
	return nil
}

// ReplaceStored atomically replaces a stored relation's content with
// the pages of resident, advancing the store's base LSN to lsn. It is
// the delete path: deletes rewrite and compact the whole relation, so
// a stored delete materializes, deletes in memory, and swaps the file.
func (r *Relation) ReplaceStored(resident *Relation, lsn uint64) error {
	if r.store == nil {
		return fmt.Errorf("relation %q: ReplaceStored on a resident relation", r.name)
	}
	return r.store.Rewrite(resident, lsn)
}

// Materialize returns a fully resident deep copy of the relation under
// the same name — the shape relalg's in-place operators need.
func (r *Relation) Materialize() (*Relation, error) {
	out := &Relation{name: r.name, schema: r.schema, pageSize: r.pageSize}
	err := r.EachPage(func(p *Page) error {
		out.pages = append(out.pages, p.Clone())
		p.Release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
