package relation

import (
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
	p.Put(pg)
	if s := p.Stats(); s.Recycled != 1 {
		t.Fatalf("after Put: %+v", s)
	}
	// A sync.Pool may drop what it is given (under the race detector it
	// drops a quarter of all Puts on purpose), so a recycled page comes
	// back on some round trip, not necessarily the first.
	for try := 0; p.Stats().Hits == 0; try++ {
		if try == 50 {
			t.Fatalf("no recycled page was ever served from the pool: %+v", p.Stats())
		}
		got := p.MustGet(256, 12)
		if got.TupleCount() != 0 {
			t.Fatalf("pooled page came back with %d tuples", got.TupleCount())
		}
		if err := got.AppendRaw(make([]byte, 12)); err != nil {
			t.Fatal(err)
		}
		p.Put(got)
	}
}

func TestPagePoolDoublePutIsNoop(t *testing.T) {
	p := NewPagePool()
	pg := p.MustGet(256, 12)
	p.Put(pg)
	p.Put(pg) // the pooled flag was cleared by the first Put
	if s := p.Stats(); s.Recycled != 1 {
		t.Errorf("double Put recycled %d pages, want 1", s.Recycled)
	}
}

func TestPagePoolIgnoresForeignPages(t *testing.T) {
	p := NewPagePool()
	pg, err := NewPage(256, 12)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(pg) // never came from a pool: must be ignored
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
	// The relation now aliases the page; recycling it would corrupt the
	// relation, so Put must be a no-op.
	p.Put(pg)
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
	p.Put(pg) // must not panic
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
		p.Put(pg)
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

// TestPagePoolConcurrent hammers one pool from many goroutines; run
// with -race this is the satellite's pool race check.
func TestPagePoolConcurrent(t *testing.T) {
	p := NewPagePool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			size := 256 + 128*(g%3)
			for i := 0; i < 500; i++ {
				pg := p.MustGet(size, 12)
				if err := pg.AppendRaw(make([]byte, 12)); err != nil {
					t.Error(err)
					return
				}
				p.Put(pg)
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
