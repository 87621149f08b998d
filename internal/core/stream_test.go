package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/workload"
)

// dispatchCounter is an event sink that counts instruction packets as
// the controllers dispatch them (one EvInstr each), so a test can read
// Stats.InstructionPackets while the run is still going. It also makes
// every dispatch slow, so that the controller, not the scan feeding it,
// is the bottleneck — as it is on a loaded server — and the operand
// backlog in its queue is as long as it can get.
type dispatchCounter struct {
	n     atomic.Int64
	delay time.Duration // per EvInstr; zero only counts
}

func (c *dispatchCounter) Emit(ev obs.Event) error {
	if ev.Kind == obs.EvInstr {
		c.n.Add(1)
		if c.delay > 0 {
			time.Sleep(c.delay)
		}
	}
	return nil
}

func (c *dispatchCounter) Close() error { return nil }

// TestStreamFirstPageLeavesEarly is the pipeline's own test: the root
// of a 400-page restrict must hand over its first result page while
// most of its input is still undispatched. With results queued behind
// operand pages in one FIFO, the first page left only after all but a
// handful of the packets had been dispatched.
func TestStreamFirstPageLeavesEarly(t *testing.T) {
	cat, _ := testDB(t, 0.5, 1000) // r1: 4000 tuples, 9 to a page
	tr, err := query.Bind(query.MustParse(`restrict(r1, val < 900)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := dispatchCounter{delay: 20 * time.Microsecond}
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000, Obs: obs.New(&dispatched, nil)})

	atFirst := int64(-1)
	pages := 0
	res, err := eng.ExecuteStream(context.Background(), tr, func(pg *relation.Page) error {
		if pages == 0 {
			atFirst = dispatched.n.Load()
		}
		pages++
		pg.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Stats.InstructionPackets
	if total < 300 {
		t.Fatalf("restrict dispatched %d packets; the test needs at least 300 input pages", total)
	}
	if got := dispatched.n.Load(); got != total {
		t.Fatalf("sink counted %d dispatches, Stats.InstructionPackets is %d", got, total)
	}
	if pages == 0 {
		t.Fatal("no page was emitted")
	}
	if atFirst >= total/2 {
		t.Errorf("first page emitted after %d of %d instruction packets; want fewer than half", atFirst, total)
	}
}

// TestStreamMatchesCollector: what ExecuteStream emits is what
// ExecuteContext collects — same tuples, same number of pages — at
// every granularity, for every benchmark query and a bare scan; and
// emit is never entered by two goroutines at once.
func TestStreamMatchesCollector(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	scan, err := query.Bind(query.MustParse("r3"), cat)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range append(qs, scan) {
		for _, g := range allGranularities() {
			eng := New(cat, Options{Granularity: g, Workers: 4, PageSize: 1000})
			want, err := eng.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatalf("query %d at %s: %v", qi+1, g, err)
			}
			got := relation.MustNew("streamed", q.Root().Schema(), 1000)
			var inEmit atomic.Int32
			res, err := eng.ExecuteStream(context.Background(), q, func(pg *relation.Page) error {
				if inEmit.Add(1) != 1 {
					t.Error("emit entered by two goroutines at once")
				}
				defer inEmit.Add(-1)
				return got.AppendPage(pg)
			})
			if err != nil {
				t.Fatalf("query %d at %s, streamed: %v", qi+1, g, err)
			}
			if res.Relation != nil {
				t.Errorf("query %d at %s: a streamed pure query returned a relation", qi+1, g)
			}
			if !got.EqualMultiset(want.Relation) {
				t.Errorf("query %d at %s: streamed %d tuples, collected %d",
					qi+1, g, got.Cardinality(), want.Relation.Cardinality())
			}
			if got.NumPages() != want.Relation.NumPages() {
				t.Errorf("query %d at %s: streamed %d pages, collected %d",
					qi+1, g, got.NumPages(), want.Relation.NumPages())
			}
			if res.Stats.TuplesOut != int64(got.Cardinality()) {
				t.Errorf("query %d at %s: TuplesOut %d, emitted %d tuples",
					qi+1, g, res.Stats.TuplesOut, got.Cardinality())
			}
		}
	}
}

// TestConcurrentBareScans is the regression test for a data race: a
// bare-scan root hands the stored relation's own pages to the result,
// and collecting them used to clear a flag on each page — a write to
// memory every concurrent reader of that relation shares. Run under
// -race.
func TestConcurrentBareScans(t *testing.T) {
	cat, _ := testDB(t, 0.02, 1000)
	eng := New(cat, Options{PageSize: 1000})
	want, _ := cat.Get("r1")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tr, err := query.Bind(query.Scan("r1"), cat)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := eng.Execute(tr)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Relation.Cardinality() != want.Cardinality() {
					t.Errorf("scan returned %d tuples, want %d", res.Relation.Cardinality(), want.Cardinality())
				}
			}
		}()
	}
	wg.Wait()
}

// TestExecuteStreamAllocCeiling: in steady state an instruction packet
// buys nothing — no task, operand slice, paginator, closure or output
// slice, and every page comes off the free list — so paper query 9 at
// the benchmark's scale, some 19,500 packets, runs in less than one
// allocation per four packets; what is left is per query (goroutines,
// controllers, kernel states), not per packet.
func TestExecuteStreamAllocCeiling(t *testing.T) {
	cat, qs, err := workload.Build(workload.Config{Seed: 1, Scale: 1, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 2048})
	var packets int64
	run := func() {
		res, err := eng.ExecuteStream(context.Background(), qs[8], func(pg *relation.Page) error {
			pg.Release()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		packets = res.Stats.InstructionPackets
	}
	allocs := testing.AllocsPerRun(3, run) // its warm-up run fills the free list
	if packets < 10000 {
		t.Fatalf("query 9 dispatched %d packets; the ceiling is meant for a join of thousands", packets)
	}
	if ceiling := float64(packets) / 4; allocs > ceiling {
		t.Errorf("query 9: %.0f allocations for %d packets, want at most one per four (%.0f)", allocs, packets, ceiling)
	}
	t.Logf("query 9: %.0f allocations, %d packets", allocs, packets)
}

// TestEveryPageComesBack: with a consumer that recycles what it is
// emitted, every page a run takes from the pool is back on the free
// list when the run ends — worker outputs, compressed-away partials,
// tuple-level scan tokens and a join's buffered operands alike — so
// gets (hits + misses) and recycled pages agree exactly, for every
// benchmark query at every granularity and both project strategies.
func TestEveryPageComesBack(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	for _, strategy := range []ProjectStrategy{ProjectSerialIC, ProjectPartitioned} {
		for _, g := range allGranularities() {
			eng := New(cat, Options{Granularity: g, Workers: 4, PageSize: 1000, Project: strategy})
			for qi, q := range qs {
				res, err := eng.ExecuteStream(context.Background(), q, func(pg *relation.Page) error {
					pg.Release()
					return nil
				})
				if err != nil {
					t.Fatalf("query %d at %s: %v", qi+1, g, err)
				}
				if st := res.Stats; st.PoolHits+st.PoolMisses != st.PagesRecycled {
					t.Errorf("query %d at %s/%s: %d pages taken (%d hits + %d misses), %d handed back",
						qi+1, g, strategy, st.PoolHits+st.PoolMisses, st.PoolHits, st.PoolMisses, st.PagesRecycled)
				}
			}
			if ps := relation.PageStats(); ps.FreeBytes > relation.PageBudget() {
				t.Errorf("%s/%s: free list holds %d bytes, budget %d", g, strategy, ps.FreeBytes, relation.PageBudget())
			}
		}
	}
}

// TestCollectedResultSurvivesRescan: a collected result holds a reference
// on each of its pages, which came from the free list, and a walk of
// it hands every reader a reference of its own. So once the result is a
// catalog relation, queries over it that recycle every page they are
// emitted — a bare scan, whose pages are the relation's own, and a
// restrict — leave its pages where they are, while the engine that
// produced them keeps recycling pages of the same size.
func TestCollectedResultSurvivesRescan(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000})
	res, err := eng.ExecuteContext(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	kept := res.Relation
	want := kept.SortedKeys()
	if len(want) == 0 {
		t.Fatal("the query produced no tuples")
	}
	alias := relation.MustNew("kept", kept.Schema(), kept.PageSize())
	for _, pg := range kept.Pages() {
		if err := alias.AppendPage(pg); err != nil {
			t.Fatal(err)
		}
	}
	cat.Put(alias)
	recycle := func(pg *relation.Page) error { pg.Release(); return nil }
	for _, text := range []string{"kept", "restrict(kept, id >= 0)"} {
		q, err := query.Bind(query.MustParse(text), cat)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for _, q := range append([]*query.Tree{q}, qs[1:]...) {
				if _, err := eng.ExecuteStream(context.Background(), q, recycle); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := kept.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("the collected result changed after queries over it recycled their pages: %d tuples, want %d", len(got), len(want))
	}
}
