package relation_test

import (
	"bytes"
	"testing"

	"dfdbm/internal/heap"
	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

// TestEachRunStoredMatchesResident: one run policy for both forms of a
// relation. A resident relation and its heap-stored copy behind a
// 64-frame pool, whose ReadRun grants at most cap/8 = 8 pages, yield the
// same runs of 1, 2, 4 … MaxRun pages with byte-identical pages, and a
// stored run reaches fn with none of its frames still loading.
func TestEachRunStoredMatchesResident(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attr{Name: "a", Type: relation.Int64},
		relation.Attr{Name: "b", Type: relation.Int64},
	)
	resident := relation.MustNew("r", schema, 256) // 15 tuples a page
	for i := range 200 * 15 {
		if err := resident.Insert(relation.Tuple{relation.IntVal(int64(i)), relation.IntVal(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry(0)
	store, err := heap.OpenStore(t.TempDir(), 64, obs.New(nil, reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	stored := resident.Clone("r")
	if err := store.Adopt(stored); err != nil {
		t.Fatal(err)
	}
	if !stored.Stored() || stored.NumPages() != 200 {
		t.Fatalf("stored copy: stored %v, %d pages", stored.Stored(), stored.NumPages())
	}

	walk := func(rel *relation.Relation) (lens []int, images [][]byte) {
		t.Helper()
		err := rel.EachRun(nil, func(run []*relation.Page) error {
			if rel.Stored() {
				if st := store.Pool().Snapshot(); st.Loading != 0 {
					t.Errorf("fn ran with frames loading: %+v", st)
				}
			}
			lens = append(lens, len(run))
			for _, pg := range run {
				images = append(images, pg.Marshal())
				pg.Release()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return lens, images
	}
	wantLens, wantImages := walk(resident)
	reads := reg.Counter("bufpool.reads")
	gotLens, gotImages := walk(stored)
	reads = reg.Counter("bufpool.reads") - reads

	for i, n := range wantLens {
		if want := min(1<<i, relation.MaxRun); i < len(wantLens)-1 && n != want {
			t.Fatalf("resident run %d holds %d pages, want %d (runs %v)", i, n, want, wantLens)
		}
	}
	if len(gotLens) != len(wantLens) {
		t.Fatalf("stored runs %v, resident runs %v", gotLens, wantLens)
	}
	visits := 0
	for i := range wantLens {
		if gotLens[i] != wantLens[i] {
			t.Fatalf("stored runs %v, resident runs %v", gotLens, wantLens)
		}
		visits += (gotLens[i] + 7) / 8
	}
	for i := range wantImages {
		if !bytes.Equal(gotImages[i], wantImages[i]) {
			t.Fatalf("stored page %d differs from the resident one", i)
		}
	}
	// A cold walk misses on every page, so each ReadRun is one read: a run
	// longer than the store's grant of 8 took several visits.
	if reads != int64(visits) {
		t.Errorf("stored walk took %d reads, want %d: one per ReadRun of at most 8 pages", reads, visits)
	}
	if st := store.Pool().Snapshot(); st.Loading != 0 {
		t.Errorf("frames left loading: %+v", st)
	}
}
