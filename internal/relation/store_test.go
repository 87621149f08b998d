package relation

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

var errGrantStore = errors.New("grantStore: injected read failure")

// grantStore is a read-only PageStore over free-list pages: it holds one
// reference per page, as a buffer pool's frame does, grants at most grant
// pages per ReadRun, counts its visits, and fails the ReadRun that starts
// at page failAt.
type grantStore struct {
	pages  []*Page
	grant  int
	failAt int
	visits int
}

func newGrantStore(t *testing.T, src *Relation, grant int) *grantStore {
	t.Helper()
	s := &grantStore{grant: grant, failAt: -1}
	for _, p := range src.Pages() {
		sp, err := Get(src.PageSize(), src.Schema().TupleLen())
		if err != nil {
			t.Fatal(err)
		}
		p.EachRaw(func(raw []byte) bool {
			if err = sp.AppendRaw(raw); err != nil {
				t.Fatal(err)
			}
			return true
		})
		s.pages = append(s.pages, sp)
	}
	return s
}

func (s *grantStore) NumPages() int        { return len(s.pages) }
func (s *grantStore) PageTuples(i int) int { return s.pages[i].TupleCount() }

func (s *grantStore) Cardinality() int {
	n := 0
	for _, p := range s.pages {
		n += p.TupleCount()
	}
	return n
}

func (s *grantStore) ReadRun(first int, dst []*Page) (int, error) {
	if first == s.failAt {
		return 0, errGrantStore
	}
	s.visits++
	n := min(len(dst), s.grant, len(s.pages)-first)
	for k := range n {
		dst[k] = s.pages[first+k]
		dst[k].Retain()
	}
	return n, nil
}

func (s *grantStore) Install(i int, p *Page) error { return errors.New("read-only") }
func (s *grantStore) Truncate(n int) error         { return errors.New("read-only") }

// TestEachRunStoreErrorReleasesRun: a store error in the middle of a run
// stops the walk with the wrapped error, and the references the run had
// already collected go back — every page is left with the store's one
// reference, no more (a leak) and no less (a double release would panic).
func TestEachRunStoreErrorReleasesRun(t *testing.T) {
	src := fillRelation(t, "r", 2000)
	if src.NumPages() < 40 {
		t.Fatalf("fixture has %d pages, want at least 40", src.NumPages())
	}
	s := newGrantStore(t, src, 8)
	// Runs 1, 2, 4, 8 cover pages 0..14; the run of 16 from page 15 is
	// granted 15..22 and fails at 23, halfway through.
	s.failAt = 23
	rel := MustNew("r", src.Schema(), src.PageSize())
	rel.SetStore(s)

	seen := 0
	err := rel.EachRun(nil, func(run []*Page) error {
		for _, p := range run {
			seen++
			p.Release()
		}
		return nil
	})
	if !errors.Is(err, errGrantStore) || !strings.Contains(err.Error(), "page 23") {
		t.Fatalf("walk over a failing store: %v, want the store error naming page 23", err)
	}
	if seen != 15 {
		t.Errorf("fn saw %d pages, want the 15 before the failed run", seen)
	}
	for i, p := range s.pages {
		if n := p.refs.Load(); n != 1 {
			t.Errorf("page %d holds %d references after the walk, want the store's 1", i, n)
		}
	}
}

// TestEachRunGrantDoesNotShapeRuns: a grant that divides no run past the
// slow start costs a short visit, never a short run. Over 75 pages at 10
// a visit fn still sees runs of 1, 2, 4 … MaxRun, from 12 visits.
func TestEachRunGrantDoesNotShapeRuns(t *testing.T) {
	src := fillRelation(t, "r", 75*9)
	if src.NumPages() != 75 {
		t.Fatalf("fixture has %d pages, want 75", src.NumPages())
	}
	s := newGrantStore(t, src, 10)
	rel := MustNew("r", src.Schema(), src.PageSize())
	rel.SetStore(s)

	var lens []int
	err := rel.EachRun(nil, func(run []*Page) error {
		lens = append(lens, len(run))
		for _, p := range run {
			p.Release()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4, 8, 16, 32, 12}; !slices.Equal(lens, want) {
		t.Errorf("runs %v, want %v", lens, want)
	}
	if s.visits != 12 {
		t.Errorf("walk made %d visits, want 12", s.visits)
	}
}

// TestEachRunAllocations: a resident walk hands out views of the page
// list and allocates nothing; a stored walk buys its one run array, or
// reads into one its caller lends.
func TestEachRunAllocations(t *testing.T) {
	rel := fillRelation(t, "r", 2000)
	runs := 0
	count := func(run []*Page) error { runs++; return nil }
	if n := testing.AllocsPerRun(10, func() { _ = rel.EachRun(nil, count) }); n != 0 {
		t.Errorf("a resident walk allocates %.0f times, want 0", n)
	}
	if runs == 0 {
		t.Fatal("walk saw no run")
	}

	stored := MustNew("r", rel.Schema(), rel.PageSize())
	stored.SetStore(newGrantStore(t, rel, 8))
	if n := testing.AllocsPerRun(10, func() { _ = stored.EachRun(nil, count) }); n != 1 {
		t.Errorf("a stored walk allocates %.0f times, want 1", n)
	}
	var buf [MaxRun]*Page
	if n := testing.AllocsPerRun(10, func() { _ = stored.EachRun(&buf, count) }); n != 0 {
		t.Errorf("a stored walk into a lent buffer allocates %.0f times, want 0", n)
	}
}

// TestEachRunRetainsResidentPages: a resident walk hands every page out
// with a reference of its own, as a stored walk does, so a consumer that
// releases each page leaves free-list pages a relation retains where they
// are.
func TestEachRunRetainsResidentPages(t *testing.T) {
	src := fillRelation(t, "src", 200)
	resetPageList()
	rel := MustNew("r", src.Schema(), src.PageSize())
	for _, sp := range src.Pages() {
		pg := mustGet(src.PageSize(), src.Schema().TupleLen())
		pg.data = append(pg.data, sp.Data()...)
		if err := rel.AppendPage(pg); err != nil {
			t.Fatal(err)
		}
		pg.Release() // the relation's reference is now the only one
	}
	for round := 0; round < 3; round++ {
		if err := rel.EachPage(func(pg *Page) error { pg.Release(); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if s := PageStats(); s.Recycled != 0 {
		t.Fatalf("%+v: walks that released their pages recycled the relation's", s)
	}
	for i, pg := range rel.Pages() {
		if n := pg.refs.Load(); n != 1 {
			t.Errorf("page %d holds %d references after the walks, want the relation's 1", i, n)
		}
	}
	if !rel.EqualMultiset(src) {
		t.Error("the relation changed under walks that released its pages")
	}
}
