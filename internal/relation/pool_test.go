package relation

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

func TestPagePoolRoundTrip(t *testing.T) {
	resetPageList()
	pg := mustGet(256, 12)
	if pg.TupleCount() != 0 {
		t.Fatalf("fresh page has %d tuples", pg.TupleCount())
	}
	if s := PageStats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first Get: %+v", s)
	}
	if err := pg.AppendRaw(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	pg.Release()
	if s := PageStats(); s.Recycled != 1 || s.FreeBytes != 256 {
		t.Fatalf("after the release: %+v", s)
	}
	// The stacks are the list's own: the collector does not empty them,
	// so the very next Get is a hit, and it is the page that was put.
	runtime.GC()
	runtime.GC()
	got := mustGet(256, 12)
	if got != pg || got.TupleCount() != 0 {
		t.Fatalf("Get after a release and two GCs returned %p with %d tuples, want the recycled page %p empty", got, got.TupleCount(), pg)
	}
	if s := PageStats(); s != (PoolStats{Hits: 1, Misses: 1, Recycled: 1}) {
		t.Fatalf("after round trip: %+v", s)
	}
}

// TestPagePoolBudgetBoundsFreeList: the bytes held free never exceed the
// budget — a last release beyond it drops the page, page by page and
// within a ReleaseAll batch alike — and every Get is exactly one hit or
// one miss. ReleaseAll skips nil entries and pages the list never handed
// out, and leaves a page with another holder out.
func TestPagePoolBudgetBoundsFreeList(t *testing.T) {
	resetPageList()
	const size = 1 << 20 // the default budget holds four
	var pages []*Page
	for i := 0; i < 5; i++ {
		pages = append(pages, mustGet(size, 12))
	}
	for _, pg := range pages {
		pg.Release()
		if s := PageStats(); s.FreeBytes > PageBudget() {
			t.Fatalf("free list holds %d bytes, budget %d", s.FreeBytes, PageBudget())
		}
	}
	if s := PageStats(); s.Recycled != 4 || s.FreeBytes != 4*size {
		t.Fatalf("5 releases under a 4-page budget: %+v", s)
	}
	for i := 0; i < 5; i++ {
		mustGet(size, 12)
	}
	if s := PageStats(); s.Hits != 4 || s.Misses != 6 || s.FreeBytes != 0 {
		t.Fatalf("10 Gets, 4 pages ever free: %+v", s)
	}

	resetPageList()
	kept := mustGet(size, 12)
	kept.Retain()
	batch := []*Page{mustGet(size, 12), nil, mustGet(size, 12), MustNewPage(256, 12), kept}
	for i := 0; i < 4; i++ {
		batch = append(batch, mustGet(size, 12))
	}
	ReleaseAll(batch)
	if s := PageStats(); s.Recycled != 4 || s.FreeBytes != 4*size {
		t.Errorf("%+v: 6 last releases in one batch should keep the budget's 4 and leave the retained page out", s)
	}
	ReleaseAll([]*Page{kept})
	if s := PageStats(); s.Recycled != 4 || s.FreeBytes != 4*size {
		t.Errorf("%+v: the retained page's last release meets a full list and should be dropped", s)
	}
}

// TestPageBudgetOnlyRises: a buffer pool's claim raises the budget above
// the default, a smaller claim leaves it where it is, and a raised budget
// keeps more pages free.
func TestPageBudgetOnlyRises(t *testing.T) {
	resetPageList()
	defer resetPageList()
	if got := PageBudget(); got != defaultPageBudget {
		t.Fatalf("budget %d before any claim, want the default %d", got, defaultPageBudget)
	}
	RaisePageBudget(defaultPageBudget / 2)
	if got := PageBudget(); got != defaultPageBudget {
		t.Fatalf("a claim below the default moved the budget to %d", got)
	}
	const size = 1 << 20
	RaisePageBudget(5 * size)
	RaisePageBudget(3 * size)
	if got := PageBudget(); got != 5*size {
		t.Fatalf("budget %d after claims of 5 MiB and 3 MiB, want 5 MiB", got)
	}
	var run [6]*Page
	if err := GetRun(size, 12, run[:]); err != nil {
		t.Fatal(err)
	}
	ReleaseAll(run[:])
	if s := PageStats(); s.Recycled != 5 || s.FreeBytes != 5*size {
		t.Errorf("%+v: a 5 MiB budget keeps 5 of 6 free pages", s)
	}
}

// TestPagePoolReformatsAcrossTupleLengths: the size class is the page
// size alone, so a recycled page serves a different tuple length.
func TestPagePoolReformatsAcrossTupleLengths(t *testing.T) {
	resetPageList()
	pg := mustGet(256, 12)
	pg.Release()
	got := mustGet(256, 100)
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
	pg := mustGet(256, 12)
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

// TestSharedPageCountsHolders: a page from the list goes back to it when
// the last of its holders lets go, not before, and a release with no
// holder left — by Release or by ReleaseAll — panics instead of recycling
// a page twice.
func TestSharedPageCountsHolders(t *testing.T) {
	PoisonRecycledPages(true)
	defer PoisonRecycledPages(false)
	resetPageList()
	pg := mustGet(256, 12)
	if err := pg.AppendRaw(bytes.Repeat([]byte{7}, 12)); err != nil {
		t.Fatal(err)
	}
	pg.Retain()
	pg.Retain() // three holders
	pg.Release()
	pg.Release()
	if s := PageStats(); s.Recycled != 0 || pg.RawTuple(0)[0] != 7 {
		t.Fatalf("recycled with a holder left: %+v", s)
	}
	pg.Release() // the last holder
	if s := PageStats(); s.Recycled != 1 {
		t.Fatalf("the last release: %+v, want the page back on the list", s)
	}
	recovered := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	twice := recovered(pg.Release)
	if twice == nil || recovered(func() { ReleaseAll([]*Page{nil, pg}) }) != twice {
		t.Errorf("a release with no holder left: Release panics with %v, ReleaseAll should panic the same", twice)
	}
	if s := PageStats(); s.Recycled != 1 {
		t.Errorf("the refused releases recycled the page again: %+v", s)
	}
	// The next Get reuses it and starts its count afresh.
	again := mustGet(256, 12)
	if again != pg {
		t.Fatalf("Get = %p, want the recycled page %p", again, pg)
	}
	again.Release()
	if s := PageStats(); s.Recycled != 2 || s.Hits != 1 {
		t.Errorf("%+v, want 2 recycled and 1 hit", s)
	}
}

// TestReleaseIgnoresUnsharedPages: Retain and Release do nothing to a
// page the list never handed out — a fresh page, a decoded blob — and
// nothing to nil.
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
	resetPageList()
	pg, err := NewPage(256, 12)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release() // never came from the list: must be ignored
	if s := PageStats(); s.Recycled != 0 {
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
	resetPageList()
	pg := mustGet(256, s.TupleLen())
	if err := pg.AppendRaw(make([]byte, s.TupleLen())); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendPage(pg); err != nil {
		t.Fatal(err)
	}
	// The relation holds a reference of its own; recycling the page would
	// corrupt the relation, so the caller's release must not.
	pg.Release()
	if s := PageStats(); s.Recycled != 0 {
		t.Errorf("retained page recycled: %+v", s)
	}
	if r.Cardinality() != 1 {
		t.Errorf("relation lost its tuple: %d", r.Cardinality())
	}
}

func TestPagePoolSizeClasses(t *testing.T) {
	a := mustGet(256, 12)
	b := mustGet(512, 12)
	c := mustGet(256, 8)
	for _, pg := range []*Page{a, b, c} {
		pg.Release()
	}
	big := mustGet(512, 12)
	if big.PageSize() != 512 || big.TupleLen() != 12 {
		t.Errorf("size-classed Get returned %d/%d page", big.PageSize(), big.TupleLen())
	}
	small := mustGet(256, 8)
	if small.PageSize() != 256 || small.TupleLen() != 8 {
		t.Errorf("size-classed Get returned %d/%d page", small.PageSize(), small.TupleLen())
	}
}

// TestPagePoolConcurrent hammers the list from many goroutines, page by
// page and a run of 4 at a time; run with -race this is its race check.
func TestPagePoolConcurrent(t *testing.T) {
	resetPageList()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			size := 256 + 128*(g%3)
			run := make([]*Page, 1+3*(g%2))
			for i := 0; i < 500; i += len(run) {
				if err := GetRun(size, 12, run); err != nil {
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
	s := PageStats()
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, 8*500)
	}
	if s.Recycled != 8*500 {
		t.Errorf("recycled = %d, want %d", s.Recycled, 8*500)
	}
}

// TestPagePoolGetRunMatchesGets: a run of n pages is n Gets under one
// lock — the same counters, free pages first, each page counting one
// holder.
func TestPagePoolGetRunMatchesGets(t *testing.T) {
	history := func() {
		resetPageList()
		run := make([]*Page, 3)
		if err := GetRun(256, 12, run); err != nil {
			t.Fatal(err)
		}
		ReleaseAll(run)
	}
	history()
	for range 5 {
		mustGet(256, 100)
	}
	byGet := PageStats()
	history()
	run := make([]*Page, 5)
	if err := GetRun(256, 100, run); err != nil {
		t.Fatal(err)
	}
	if byRun := PageStats(); byRun != byGet || byRun.Hits != 3 || byRun.Misses != 3+2 {
		t.Fatalf("GetRun of 5 left %+v, 5 Gets %+v; want 3 hits and 5 misses", byRun, byGet)
	}
	seen := map[*Page]bool{}
	for i, pg := range run {
		if seen[pg] || pg.TupleLen() != 100 || pg.Capacity() != 2 || !pg.Empty() {
			t.Fatalf("run page %d: duplicate %v, tuple length %d, capacity %d", i, seen[pg], pg.TupleLen(), pg.Capacity())
		}
		seen[pg] = true
		pg.Release()
	}
	if s := PageStats(); s.Recycled != 3+5 {
		t.Errorf("%+v: every page of the run should have come back on its one release", s)
	}
	if err := GetRun(8, 12, run); err == nil {
		t.Error("GetRun of an impossible geometry succeeded")
	}
}

// TestPagePoolRunsAllocateNothingWarm: once a run's pages are on the free
// list, taking and returning a run costs no allocation.
func TestPagePoolRunsAllocateNothingWarm(t *testing.T) {
	run := make([]*Page, MaxRun)
	cycle := func() {
		if err := GetRun(2048, 100, run); err != nil {
			t.Fatal(err)
		}
		ReleaseAll(run)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a warm GetRun and ReleaseAll of %d pages allocate %.1f times, want 0", MaxRun, allocs)
	}
}
