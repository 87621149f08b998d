package core

import (
	"fmt"
	"sync"
	"testing"

	"dfdbm/internal/query"
	"dfdbm/internal/relation"
)

// executeAndCheck runs q on eng and compares the result with the serial
// reference's: tuple count, page count and multiset. The result's pages
// go back to the free list afterwards, so a later run can take them.
func executeAndCheck(eng *Engine, q *query.Tree, want *relation.Relation) error {
	res, err := eng.Execute(q)
	if err != nil {
		return err
	}
	got := res.Relation
	defer relation.ReleaseAll(got.Pages())
	if got.Cardinality() != want.Cardinality() || got.NumPages() != want.NumPages() || !got.EqualMultiset(want) {
		return fmt.Errorf("%d tuples in %d pages, serial %d in %d (or the multisets differ)",
			got.Cardinality(), got.NumPages(), want.Cardinality(), want.NumPages())
	}
	if res.Stats.TuplesOut != int64(want.Cardinality()) {
		return fmt.Errorf("TuplesOut = %d, want %d", res.Stats.TuplesOut, want.Cardinality())
	}
	return nil
}

// serialAnswers is ExecuteSerial of every query, in the engine's page size.
func serialAnswers(t *testing.T, eng *Engine, qs []*query.Tree) []*relation.Relation {
	t.Helper()
	want := make([]*relation.Relation, len(qs))
	for i, q := range qs {
		w, err := query.ExecuteSerial(eng.cat, q, eng.opts.PageSize)
		if err != nil {
			t.Fatalf("query %d serial: %v", i+1, err)
		}
		want[i] = w
	}
	return want
}

// TestParkedStateNeverAnswersFromAnotherRun: kernel state an engine keeps
// between runs holds nothing of the run that filled it. Query 6 leaves
// join tables keyed by its operand pages; those pages go back to the free
// list, and query 3 takes them again (poisoned in between), so a table
// that survived its run would answer query 3 — or query 6 the second
// time — from tuples that are no longer there.
func TestParkedStateNeverAnswersFromAnotherRun(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000})
	want := serialAnswers(t, eng, qs)
	for round := 0; round < 3; round++ {
		for _, qi := range []int{5, 2, 5} {
			if err := executeAndCheck(eng, qs[qi], want[qi]); err != nil {
				t.Fatalf("round %d, query %d: %v", round, qi+1, err)
			}
		}
	}
}

// TestParkedStateUnderConcurrentRuns: two sessions run the paper's mix on
// one engine at once, so runs take and park kernel states, event queues
// and arbitration channels while others are still running. Every answer
// is the serial one, and every run buffer taken is back afterwards.
func TestParkedStateUnderConcurrentRuns(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000})
	want := serialAnswers(t, eng, qs)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				qi := (3*i + 7*g) % len(qs)
				if err := executeAndCheck(eng, qs[qi], want[qi]); err != nil {
					t.Errorf("session %d, run %d, query %d: %v", g, i, qi+1, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if gets, puts := eng.runs.counts(); gets != puts {
		t.Errorf("%d run buffers taken, %d given back", gets, puts)
	}
}
