package relation

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

func TestPagePoolRoundTrip(t *testing.T) {
	p := NewPagePool()
	pg := p.MustGet(256, 12)
	if pg.TupleCount() != 0 {
		t.Fatalf("fresh page has %d tuples", pg.TupleCount())
	}
	if s := p.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first Get: %+v", s)
	}
	if err := pg.AppendRaw(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	pg.Release()
	if s := p.Stats(); s.Recycled != 1 || s.FreeBytes != 256 {
		t.Fatalf("after the release: %+v", s)
	}
	// The free list is the pool's own: the collector does not empty it,
	// so the very next Get is a hit, and it is the page that was put.
	runtime.GC()
	runtime.GC()
	got := p.MustGet(256, 12)
	if got != pg || got.TupleCount() != 0 {
		t.Fatalf("Get after a release and two GCs returned %p with %d tuples, want the recycled page %p empty", got, got.TupleCount(), pg)
	}
	if s := p.Stats(); s != (PoolStats{Hits: 1, Misses: 1, Recycled: 1}) {
		t.Fatalf("after round trip: %+v", s)
	}
}

// TestPagePoolBudgetBoundsFreeList: the bytes held free never exceed
// the budget — a last release beyond it drops the page — and every Get is
// exactly one hit or one miss.
func TestPagePoolBudgetBoundsFreeList(t *testing.T) {
	p := NewPagePool()
	p.SetBudget(3 * 256)
	var pages []*Page
	for i := 0; i < 5; i++ {
		pages = append(pages, p.MustGet(256, 12))
	}
	for _, pg := range pages {
		pg.Release()
		if s := p.Stats(); s.FreeBytes > p.Budget() {
			t.Fatalf("free list holds %d bytes, budget %d", s.FreeBytes, p.Budget())
		}
	}
	if s := p.Stats(); s.Recycled != 3 || s.FreeBytes != 3*256 {
		t.Fatalf("5 releases under a 3-page budget: %+v", s)
	}
	for i := 0; i < 5; i++ {
		p.MustGet(256, 12)
	}
	if s := p.Stats(); s.Hits != 3 || s.Misses != 7 || s.FreeBytes != 0 {
		t.Fatalf("10 Gets, 3 pages ever free: %+v", s)
	}
}

// TestPagePoolReformatsAcrossTupleLengths: the size class is the page
// size alone, so a recycled page serves a different tuple length.
func TestPagePoolReformatsAcrossTupleLengths(t *testing.T) {
	p := NewPagePool()
	pg := p.MustGet(256, 12)
	pg.Release()
	got := p.MustGet(256, 100)
	if got != pg {
		t.Fatal("a free page of the same size was not reused for another tuple length")
	}
	if got.TupleLen() != 100 || got.Capacity() != 2 {
		t.Fatalf("reformatted page: tuple length %d, capacity %d", got.TupleLen(), got.Capacity())
	}
	for i := 0; i < 2; i++ {
		if err := got.AppendRaw(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if !got.Full() {
		t.Error("page not full at its capacity")
	}
}

// TestPagePoolPoisonsRecycledPages: with the detector on, recycling overwrites
// the page's whole payload capacity, so a stale reader cannot mistake
// recycled bytes for tuples.
func TestPagePoolPoisonsRecycledPages(t *testing.T) {
	PoisonRecycledPages(true)
	defer PoisonRecycledPages(false)
	p := NewPagePool()
	pg := p.MustGet(256, 12)
	if err := pg.AppendRaw(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	stale := pg.Data()
	pg.Release()
	whole := stale[:cap(stale)]
	if len(whole) != 256-PageHeaderLen {
		t.Fatalf("payload capacity %d, want %d", len(whole), 256-PageHeaderLen)
	}
	for i, b := range whole {
		if b != 0xDB {
			t.Fatalf("byte %d of a recycled page is %#x, want 0xDB", i, b)
		}
	}
}

// TestNewPageNeverGrows: the payload is bought once, at full capacity —
// a page filled to the brim costs its struct and its payload, nothing
// for growth.
func TestNewPageNeverGrows(t *testing.T) {
	raw := make([]byte, 100)
	allocs := testing.AllocsPerRun(10, func() {
		pg := MustNewPage(2048, 100)
		for !pg.Full() {
			if err := pg.AppendRaw(raw); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 2 {
		t.Errorf("allocating and filling a page took %.0f allocations, want 2", allocs)
	}
}

// TestSharedPageCountsHolders: a page from a pool goes back to it when
// the last of its holders lets go, not before, and a release with no
// holder left panics instead of recycling a page twice.
func TestSharedPageCountsHolders(t *testing.T) {
	PoisonRecycledPages(true)
	defer PoisonRecycledPages(false)
	p := NewPagePool()
	pg := p.MustGet(256, 12)
	if err := pg.AppendRaw(bytes.Repeat([]byte{7}, 12)); err != nil {
		t.Fatal(err)
	}
	pg.Retain()
	pg.Retain() // three holders
	pg.Release()
	pg.Release()
	if s := p.Stats(); s.Recycled != 0 || pg.RawTuple(0)[0] != 7 {
		t.Fatalf("recycled with a holder left: %+v", s)
	}
	pg.Release() // the last holder
	if s := p.Stats(); s.Recycled != 1 {
		t.Fatalf("the last release: %+v, want the page back on the list", s)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a release with no holder left did not panic")
			}
		}()
		pg.Release()
	}()
	if s := p.Stats(); s.Recycled != 1 {
		t.Errorf("the refused release recycled the page again: %+v", s)
	}
	// The next Get reuses it and starts its count afresh.
	again := p.MustGet(256, 12)
	if again != pg {
		t.Fatalf("Get = %p, want the recycled page %p", again, pg)
	}
	again.Release()
	if s := p.Stats(); s.Recycled != 2 || s.Hits != 1 {
		t.Errorf("%+v, want 2 recycled and 1 hit", s)
	}
}

// TestReleaseIgnoresUnsharedPages: Retain and Release do nothing to a
// page no pool handed out — a fresh page, a decoded blob — and nothing
// to nil.
func TestReleaseIgnoresUnsharedPages(t *testing.T) {
	blob := MustNewPage(256, 12).Marshal()
	decoded, err := UnmarshalPage(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range []*Page{MustNewPage(256, 12), decoded, nil} {
		if pg != nil {
			pg.Retain()
		}
		pg.Release()
		pg.Release()
		pg.Release()
	}
}

func TestPagePoolIgnoresForeignPages(t *testing.T) {
	p := NewPagePool()
	pg, err := NewPage(256, 12)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release() // never came from a pool: must be ignored
	if s := p.Stats(); s.Recycled != 0 {
		t.Errorf("foreign page recycled: %+v", s)
	}
}

func TestAppendPageRetainsFromPool(t *testing.T) {
	s, err := NewSchema(Attr{Name: "k", Type: Int32})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New("R", s, 256)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPagePool()
	pg := p.MustGet(256, s.TupleLen())
	if err := pg.AppendRaw(make([]byte, s.TupleLen())); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendPage(pg); err != nil {
		t.Fatal(err)
	}
	// The relation holds a reference of its own; recycling the page would
	// corrupt the relation, so the caller's release must not.
	pg.Release()
	if s := p.Stats(); s.Recycled != 0 {
		t.Errorf("retained page recycled: %+v", s)
	}
	if r.Cardinality() != 1 {
		t.Errorf("relation lost its tuple: %d", r.Cardinality())
	}
}

func TestNilPagePoolDegrades(t *testing.T) {
	var p *PagePool
	pg := p.MustGet(256, 12)
	if pg == nil {
		t.Fatal("nil pool Get returned nil page")
	}
	pg.Release() // must not panic
	if s := p.Stats(); s != (PoolStats{}) {
		t.Errorf("nil pool has stats %+v", s)
	}
}

func TestPagePoolSizeClasses(t *testing.T) {
	p := NewPagePool()
	a := p.MustGet(256, 12)
	b := p.MustGet(512, 12)
	c := p.MustGet(256, 8)
	for _, pg := range []*Page{a, b, c} {
		pg.Release()
	}
	big := p.MustGet(512, 12)
	if big.PageSize() != 512 || big.TupleLen() != 12 {
		t.Errorf("size-classed Get returned %d/%d page", big.PageSize(), big.TupleLen())
	}
	small := p.MustGet(256, 8)
	if small.PageSize() != 256 || small.TupleLen() != 8 {
		t.Errorf("size-classed Get returned %d/%d page", small.PageSize(), small.TupleLen())
	}
}

// TestPagePoolConcurrent hammers one pool from many goroutines, page by
// page and a run of 4 at a time; run with -race this is the satellite's
// pool race check.
func TestPagePoolConcurrent(t *testing.T) {
	p := NewPagePool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			size := 256 + 128*(g%3)
			run := make([]*Page, 1+3*(g%2))
			for i := 0; i < 500; i += len(run) {
				if err := p.GetRun(size, 12, run); err != nil {
					t.Error(err)
					return
				}
				for _, pg := range run {
					if err := pg.AppendRaw(make([]byte, 12)); err != nil {
						t.Error(err)
						return
					}
				}
				ReleaseAll(run)
			}
		}(g)
	}
	wg.Wait()
	s := p.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, 8*500)
	}
	if s.Recycled != 8*500 {
		t.Errorf("recycled = %d, want %d", s.Recycled, 8*500)
	}
}

// TestPagePoolGetRunMatchesGets: a run of n pages is n Gets under one
// lock — the same counters, free pages first, each page counting one
// holder — and a nil pool allocates the run uncounted.
func TestPagePoolGetRunMatchesGets(t *testing.T) {
	history := func() *PagePool {
		p := NewPagePool()
		run := make([]*Page, 3)
		if err := p.GetRun(256, 12, run); err != nil {
			t.Fatal(err)
		}
		ReleaseAll(run)
		return p
	}
	byRun, byGet := history(), history()
	run := make([]*Page, 5)
	if err := byRun.GetRun(256, 100, run); err != nil {
		t.Fatal(err)
	}
	for range run {
		byGet.MustGet(256, 100)
	}
	if a, b := byRun.Stats(), byGet.Stats(); a != b || a.Hits != 3 || a.Misses != 3+2 {
		t.Fatalf("GetRun of 5 left %+v, 5 Gets %+v; want 3 hits and 5 misses", a, b)
	}
	seen := map[*Page]bool{}
	for i, pg := range run {
		if seen[pg] || pg.TupleLen() != 100 || pg.Capacity() != 2 || !pg.Empty() {
			t.Fatalf("run page %d: duplicate %v, tuple length %d, capacity %d", i, seen[pg], pg.TupleLen(), pg.Capacity())
		}
		seen[pg] = true
		pg.Release()
	}
	if s := byRun.Stats(); s.Recycled != 3+5 {
		t.Errorf("%+v: every page of the run should have come back on its one release", s)
	}
	if err := byRun.GetRun(8, 12, run); err == nil {
		t.Error("GetRun of an impossible geometry succeeded")
	}
	var nilPool *PagePool
	if err := nilPool.GetRun(256, 12, run); err != nil || run[4] == nil {
		t.Fatalf("nil pool GetRun: %v", err)
	}
	ReleaseAll(run) // uncounted pages: nothing to do
}

// TestReleaseAllBatchesByHome: ReleaseAll is Release for every page —
// nil and pages no pool handed out skipped, a page with another holder
// kept, each last release recycled into its own pool under that pool's
// budget, page by page within a batch — and an over-release panics as
// Release does.
func TestReleaseAllBatchesByHome(t *testing.T) {
	a, b := NewPagePool(), NewPagePool()
	a.SetBudget(3 * 256)
	kept := b.MustGet(256, 12)
	kept.Retain()
	pages := []*Page{
		a.MustGet(256, 12), b.MustGet(256, 12), nil, a.MustGet(256, 12),
		MustNewPage(256, 12), kept, a.MustGet(256, 12), a.MustGet(256, 12), b.MustGet(256, 12),
	}
	ReleaseAll(pages)
	if s := a.Stats(); s.Recycled != 3 || s.FreeBytes != 3*256 {
		t.Errorf("pool a: %+v; want 3 of its 4 pages kept, the budget's worth", s)
	}
	if s := b.Stats(); s.Recycled != 2 {
		t.Errorf("pool b: %+v; want its 2 pages back and the retained one kept out", s)
	}
	ReleaseAll([]*Page{kept})
	if s := b.Stats(); s.Recycled != 3 {
		t.Errorf("pool b: %+v; the retained page's last release should bring it back", s)
	}
	recovered := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	twice := recovered(kept.Release)
	if twice == nil || recovered(func() { ReleaseAll([]*Page{kept}) }) != twice {
		t.Errorf("an over-release: Release panics with %v, ReleaseAll should panic the same", twice)
	}
	if s := b.Stats(); s.Recycled != 3 {
		t.Errorf("pool b: %+v; a refused release recycled a page again", s)
	}
}

// TestPagePoolRunsAllocateNothingWarm: once a run's pages are on the free
// list, taking and returning a run costs no allocation.
func TestPagePoolRunsAllocateNothingWarm(t *testing.T) {
	p := NewPagePool()
	run := make([]*Page, MaxRun)
	cycle := func() {
		if err := p.GetRun(2048, 100, run); err != nil {
			t.Fatal(err)
		}
		ReleaseAll(run)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a warm GetRun and ReleaseAll of %d pages allocate %.1f times, want 0", MaxRun, allocs)
	}
}
