package catalog

import (
	"sync"
	"testing"

	"dfdbm/internal/relation"
)

func mkRel(t testing.TB, name string, n int) *relation.Relation {
	t.Helper()
	s := relation.MustSchema(relation.Attr{Name: "id", Type: relation.Int32})
	r := relation.MustNew(name, s, 64)
	for i := 0; i < n; i++ {
		if err := r.Insert(relation.Tuple{relation.IntVal(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestCatalogPutGetDrop(t *testing.T) {
	c := New()
	if c.Len() != 0 {
		t.Fatalf("new catalog has %d relations", c.Len())
	}
	c.Put(mkRel(t, "A", 3))
	c.Put(mkRel(t, "B", 5))
	if c.Len() != 2 || !c.Has("A") || !c.Has("B") || c.Has("C") {
		t.Error("Put/Has bookkeeping wrong")
	}
	r, err := c.Get("A")
	if err != nil || r.Cardinality() != 3 {
		t.Errorf("Get(A) = %v, %v", r, err)
	}
	if _, err := c.Get("C"); err == nil {
		t.Error("Get of missing relation succeeded")
	}
	if !c.Drop("A") || c.Drop("A") {
		t.Error("Drop semantics wrong")
	}
	if c.Len() != 1 {
		t.Errorf("Len after drop = %d, want 1", c.Len())
	}
}

func TestCatalogReplace(t *testing.T) {
	c := New()
	c.Put(mkRel(t, "A", 3))
	c.Put(mkRel(t, "A", 7))
	r, err := c.Get("A")
	if err != nil || r.Cardinality() != 7 {
		t.Errorf("replaced relation has %d tuples, want 7", r.Cardinality())
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCatalogNamesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.Put(mkRel(t, n, 1))
	}
	names := c.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != 3 {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestCatalogTotals(t *testing.T) {
	c := New()
	a := mkRel(t, "A", 10)
	b := mkRel(t, "B", 20)
	c.Put(a)
	c.Put(b)
	if got, want := c.TotalBytes(), a.ByteSize()+b.ByteSize(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

func TestCatalogConcurrentAccess(t *testing.T) {
	c := New()
	c.Put(mkRel(t, "base", 5))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch i % 4 {
				case 0:
					c.Put(mkRel(t, "base", 5))
				case 1:
					_, _ = c.Get("base")
				case 2:
					_ = c.Names()
				case 3:
					_ = c.TotalBytes()
				}
			}
		}(g)
	}
	wg.Wait()
	if !c.Has("base") {
		t.Error("base relation lost")
	}
}
