package relation_test

import (
	"bytes"
	"context"
	"testing"

	"dfdbm/internal/core"
	"dfdbm/internal/heap"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/wal"
	"dfdbm/internal/workload"
)

// TestOneListMixedHolders: every holder of page memory in a process draws
// on the one free list — a stored scan through a buffer pool of eight
// frames (2 KB frame pages), engine intermediates (4 KB pages), and
// appends applied as the log applies them (post-images installed over the
// tail, which the frames let go of again). The list never
// holds more than its budget, a warm repeat of the mix takes no fresh
// page, and a page the list never handed out (NewPage) still ignores
// Retain and Release.
func TestOneListMixedHolders(t *testing.T) {
	relation.PoisonRecycledPages(true)
	defer relation.PoisonRecycledPages(false)
	cat, _, err := workload.Build(workload.Config{Seed: 7, Scale: 0.05, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	store, err := heap.OpenStore(t.TempDir(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, name := range []string{"r1", "r15"} {
		rel, err := cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Adopt(rel); err != nil {
			t.Fatal(err)
		}
	}
	r15, err := cat.Get("r15")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cat.Get("r2")
	if err != nil {
		t.Fatal(err)
	}
	appends := r2.Page(0).Data()[:20*r2.Schema().TupleLen()]
	batch := relation.MustNew("batch", r2.Schema(), r2.PageSize())
	for k := 0; k < len(appends); k += r2.Schema().TupleLen() {
		if err := batch.InsertRaw(appends[k : k+r2.Schema().TupleLen()]); err != nil {
			t.Fatal(err)
		}
	}

	var queries []*query.Tree
	var want []int
	for _, text := range []string{
		"restrict(r1, val < 300)",
		"join(restrict(r1, val < 200), r2, k1 = k1)",
		"project(r1, [k2])",
	} {
		q, err := query.Bind(query.MustParse(text), cat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := query.ExecuteSerial(cat, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		queries, want = append(queries, q), append(want, ref.Cardinality())
	}
	eng := core.New(cat, core.Options{Workers: 2, PageSize: 4096})

	withinBudget := func(after string) {
		t.Helper()
		if st := relation.PageStats(); st.FreeBytes > relation.PageBudget() {
			t.Fatalf("after %s the free list holds %d bytes, budget %d", after, st.FreeBytes, relation.PageBudget())
		}
	}
	mix := func() {
		for i, q := range queries {
			tuples := 0
			_, err := eng.ExecuteStream(context.Background(), q, func(pg *relation.Page) error {
				tuples += pg.TupleCount()
				pg.Release()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if tuples != want[i] {
				t.Fatalf("query %d streamed %d tuples, the serial reference %d", i, tuples, want[i])
			}
			withinBudget("a query")
		}
		rec, err := wal.AppendRecord(r15, batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Apply(cat); err != nil {
			t.Fatal(err)
		}
		withinBudget("the appends")
	}
	// A round misses only when more pages are out at once than in any
	// round before, so misses stop once the mix has reached its peak.
	warm := false
	for round := 0; round < 10 && !warm; round++ {
		before := relation.PageStats()
		mix()
		after := relation.PageStats()
		warm = round > 0 && after.Misses == before.Misses
		t.Logf("round %d: %d pages off the list, %d fresh", round, after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if !warm {
		t.Error("ten rounds of the mix each took a fresh page: pages are not coming back")
	}

	pg := relation.MustNewPage(2048, r2.Schema().TupleLen())
	if err := pg.AppendRaw(appends[:r2.Schema().TupleLen()]); err != nil {
		t.Fatal(err)
	}
	before := relation.PageStats()
	pg.Retain()
	pg.Release()
	pg.Release()
	pg.Release()
	relation.ReleaseAll([]*relation.Page{pg, pg})
	if after := relation.PageStats(); after != before || !bytes.Equal(pg.Data(), appends[:r2.Schema().TupleLen()]) {
		t.Errorf("a NewPage page was counted: free list %+v -> %+v", before, after)
	}
}
