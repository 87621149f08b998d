package relation

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperSchema is a 100-byte tuple schema: the tuple size assumed in the
// paper's Section 3.3 bandwidth analysis.
func paperSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attr{Name: "id", Type: Int32},
		Attr{Name: "a", Type: Int32},
		Attr{Name: "b", Type: Int32},
		Attr{Name: "pad", Type: String, Width: 88},
	)
	if err != nil {
		t.Fatalf("paperSchema: %v", err)
	}
	if s.TupleLen() != 100 {
		t.Fatalf("paperSchema tuple length = %d, want 100", s.TupleLen())
	}
	return s
}

func TestPageCapacityMatchesPaper(t *testing.T) {
	// 1000-byte pages of 100-byte tuples: the paper says ten tuples per
	// page; our 16-byte header costs one slot, so nine fit. The analysis
	// package accounts for this explicitly.
	p := MustNewPage(AnalysisPageSize, 100)
	if got := p.Capacity(); got != 9 {
		t.Errorf("Capacity = %d, want 9 (1000-byte page, 16-byte header)", got)
	}
	big := MustNewPage(DefaultPageSize, 100)
	if got := big.Capacity(); got != 163 {
		t.Errorf("16K page capacity = %d, want 163", got)
	}
}

func TestPageAppendAndRead(t *testing.T) {
	s := paperSchema(t)
	p := MustNewPage(AnalysisPageSize, s.TupleLen())
	for i := 0; i < p.Capacity(); i++ {
		tup := Tuple{IntVal(int64(i)), IntVal(int64(i * 2)), IntVal(int64(i * 3)), StringVal("x")}
		if err := p.AppendTuple(s, tup); err != nil {
			t.Fatalf("AppendTuple(%d): %v", i, err)
		}
	}
	if !p.Full() {
		t.Error("page not Full after Capacity appends")
	}
	if err := p.AppendTuple(s, Tuple{IntVal(0), IntVal(0), IntVal(0), StringVal("")}); err == nil {
		t.Error("append to full page succeeded, want error")
	}
	for i := 0; i < p.TupleCount(); i++ {
		tup, err := p.Tuple(i, s)
		if err != nil {
			t.Fatalf("Tuple(%d): %v", i, err)
		}
		if tup[0].Int != int64(i) || tup[1].Int != int64(i*2) {
			t.Errorf("Tuple(%d) = %v", i, tup)
		}
	}
}

func TestPageValidation(t *testing.T) {
	if _, err := NewPage(50, 100); err == nil {
		t.Error("NewPage smaller than one tuple succeeded")
	}
	if _, err := NewPage(1000, 0); err == nil {
		t.Error("NewPage with zero tuple length succeeded")
	}
	p := MustNewPage(1000, 100)
	if err := p.AppendRaw(make([]byte, 99)); err == nil {
		t.Error("AppendRaw with wrong length succeeded")
	}
	s := MustSchema(Attr{Name: "a", Type: Int32})
	if err := p.AppendTuple(s, Tuple{IntVal(1)}); err == nil {
		t.Error("AppendTuple with mismatched schema length succeeded")
	}
}

func TestPageWireSize(t *testing.T) {
	p := MustNewPage(1000, 100)
	if got := p.WireSize(); got != PageHeaderLen {
		t.Errorf("empty WireSize = %d, want %d", got, PageHeaderLen)
	}
	_ = p.AppendRaw(make([]byte, 100))
	if got := p.WireSize(); got != PageHeaderLen+100 {
		t.Errorf("WireSize = %d, want %d", got, PageHeaderLen+100)
	}
}

func TestPageMarshalRoundTrip(t *testing.T) {
	s := paperSchema(t)
	p := MustNewPage(AnalysisPageSize, s.TupleLen())
	for i := 0; i < 5; i++ {
		if err := p.AppendTuple(s, Tuple{IntVal(int64(i)), IntVal(0), IntVal(0), StringVal("t")}); err != nil {
			t.Fatal(err)
		}
	}
	blob := p.Marshal()
	if len(blob) != p.WireSize() {
		t.Errorf("Marshal length = %d, want WireSize %d", len(blob), p.WireSize())
	}
	if framed := p.AppendMarshal([]byte("hdr")); !bytes.Equal(framed, append([]byte("hdr"), blob...)) {
		t.Error("AppendMarshal behind a prefix differs from the prefix plus Marshal")
	}
	if head := p.AppendHeader(nil); len(head) != PageHeaderLen || !bytes.Equal(append(head, p.Data()...), blob) {
		t.Errorf("the %d-byte header followed by Data differs from Marshal", len(head))
	}
	q, err := UnmarshalPage(blob)
	if err != nil {
		t.Fatalf("UnmarshalPage: %v", err)
	}
	if q.TupleCount() != p.TupleCount() || q.PageSize() != p.PageSize() || q.TupleLen() != p.TupleLen() {
		t.Errorf("round trip mismatch: %+v vs %+v", q, p)
	}
	for i := 0; i < p.TupleCount(); i++ {
		if !bytes.Equal(p.RawTuple(i), q.RawTuple(i)) {
			t.Errorf("tuple %d differs after round trip", i)
		}
	}
}

// TestUnmarshalPageAdoptsBlob: a decoded page's payload is the blob's
// tail, not a copy, and appending to the page buys new memory instead of
// writing into whatever follows the blob in its buffer.
func TestUnmarshalPageAdoptsBlob(t *testing.T) {
	p := MustNewPage(1000, 100)
	for i := 0; i < 3; i++ {
		if err := p.AppendRaw(bytes.Repeat([]byte{byte('a' + i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// The blob sits in a larger buffer, as a frame's payload does.
	buf := append(p.Marshal(), bytes.Repeat([]byte{0xEE}, 200)...)
	blob := buf[:p.WireSize()]
	before := bytes.Clone(buf)
	q, err := UnmarshalPage(blob)
	if err != nil {
		t.Fatal(err)
	}
	if &q.Data()[0] != &blob[PageHeaderLen] || len(q.Data()) != len(blob)-PageHeaderLen {
		t.Error("the decoded page does not share the blob's bytes")
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = UnmarshalPage(blob) }); allocs > 1 {
		t.Errorf("UnmarshalPage allocates %.0f times, want the page struct alone", allocs)
	}
	if err := q.AppendRaw(bytes.Repeat([]byte{'z'}, 100)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, before) {
		t.Error("appending to a decoded page wrote into the blob's buffer")
	}
	if q.TupleCount() != 4 || !bytes.Equal(q.Data()[:300], blob[PageHeaderLen:]) || q.RawTuple(3)[0] != 'z' {
		t.Error("the page lost tuples when its payload moved")
	}
}

func TestUnmarshalPageErrors(t *testing.T) {
	p := MustNewPage(1000, 100)
	_ = p.AppendRaw(make([]byte, 100))
	good := p.Marshal()

	cases := []struct {
		name string
		blob []byte
	}{
		{"short", good[:10]},
		{"bad magic", append([]byte{1, 2, 3, 4}, good[4:]...)},
		{"truncated payload", good[:len(good)-1]},
		{"extra payload", append(append([]byte(nil), good...), 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := UnmarshalPage(c.blob); err == nil {
				t.Error("UnmarshalPage succeeded, want error")
			}
			// Load shares the header parser: it refuses what UnmarshalPage does.
			if err := MustNewPage(1000, 100).Load(c.blob); err == nil {
				t.Error("Load succeeded, want error")
			}
		})
	}
}

// TestPageLoadCopiesInPlace: Load decodes a blob into the page's own
// full-capacity payload — the blob stays the caller's to reuse, nothing
// is allocated, whatever the page held before is gone, appends after it
// land in place — and refuses a blob of another page size.
func TestPageLoadCopiesInPlace(t *testing.T) {
	src := MustNewPage(1000, 100)
	for i := 0; i < 3; i++ {
		if err := src.AppendRaw(bytes.Repeat([]byte{byte('a' + i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	blob := src.Marshal()
	p := MustNewPage(1000, 50) // another tuple length, and not empty
	if err := p.AppendRaw(make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	payload := &p.Data()[0]
	if allocs := testing.AllocsPerRun(10, func() {
		if err := p.Load(blob); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Load allocates %.0f times, want 0", allocs)
	}
	if p.TupleLen() != 100 || p.TupleCount() != 3 || p.Capacity() != 9 || !bytes.Equal(p.Marshal(), blob) {
		t.Errorf("loaded page: %d tuples of %d bytes, capacity %d", p.TupleCount(), p.TupleLen(), p.Capacity())
	}
	if &p.Data()[0] != payload {
		t.Error("Load moved the payload")
	}
	clear(blob) // the caller reuses its buffer
	if p.RawTuple(2)[0] != 'c' {
		t.Error("the loaded page aliases the blob")
	}
	if err := p.AppendRaw(bytes.Repeat([]byte{'z'}, 100)); err != nil {
		t.Fatal(err)
	}
	if &p.Data()[0] != payload || p.TupleCount() != 4 {
		t.Error("an append after Load did not land in place")
	}
	if err := MustNewPage(2000, 100).Load(src.Marshal()); err == nil {
		t.Error("Load of a 1000-byte page's blob into a 2000-byte page succeeded")
	}
}

func TestPageFillFrom(t *testing.T) {
	dst := MustNewPage(1000, 100)
	src := MustNewPage(1000, 100)
	for i := 0; i < 4; i++ {
		raw := make([]byte, 100)
		raw[0] = byte(i + 1)
		if err := src.AppendRaw(raw); err != nil {
			t.Fatal(err)
		}
	}
	// dst already has 7 tuples; capacity 9 leaves room for 2.
	for i := 0; i < 7; i++ {
		if err := dst.AppendRaw(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := dst.FillFrom(src)
	if err != nil {
		t.Fatalf("FillFrom: %v", err)
	}
	if moved != 2 || dst.TupleCount() != 9 || src.TupleCount() != 2 {
		t.Errorf("moved=%d dst=%d src=%d; want 2, 9, 2", moved, dst.TupleCount(), src.TupleCount())
	}
	if !dst.Full() {
		t.Error("dst not full after FillFrom")
	}
	// One copy moves src's last two tuples, in their order, and src keeps
	// its first two: every tuple is still there, once.
	for i, want := range []byte{3, 4} {
		if got := dst.RawTuple(7 + i)[0]; got != want {
			t.Errorf("dst tuple %d is source tuple %d, want %d", 7+i, got, want)
		}
	}
	for i, want := range []byte{1, 2} {
		if got := src.RawTuple(i)[0]; got != want {
			t.Errorf("src tuple %d is source tuple %d, want %d", i, got, want)
		}
	}
	// Draining what is left into a page with room moves all of it.
	rest := MustNewPage(1000, 100)
	if moved, err := rest.FillFrom(src); err != nil || moved != 2 || !src.Empty() {
		t.Errorf("draining FillFrom moved %d (err %v), src keeps %d", moved, err, src.TupleCount())
	}
	if rest.RawTuple(0)[0] != 1 || rest.RawTuple(1)[0] != 2 {
		t.Error("draining FillFrom reordered the tuples")
	}
	other := MustNewPage(1000, 50)
	if _, err := other.FillFrom(src); err == nil {
		t.Error("FillFrom with mismatched tuple length succeeded")
	}
}

func TestPageClone(t *testing.T) {
	p := MustNewPage(1000, 100)
	raw := make([]byte, 100)
	raw[0] = 7
	_ = p.AppendRaw(raw)
	q := p.Clone()
	q.RawTuple(0)[0] = 9
	if p.RawTuple(0)[0] != 7 {
		t.Error("Clone shares storage with original")
	}
}

func TestPaginator(t *testing.T) {
	g, err := NewPaginator(AnalysisPageSize, 100)
	if err != nil {
		t.Fatalf("NewPaginator: %v", err)
	}
	var pages []*Page
	total := 20
	for i := 0; i < total; i++ {
		raw := make([]byte, 100)
		raw[0] = byte(i)
		p, err := g.Add(raw)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if p != nil {
			pages = append(pages, p)
		}
	}
	if last := g.Flush(); last != nil {
		pages = append(pages, last)
	}
	if g.Flush() != nil {
		t.Error("second Flush returned a page")
	}
	n := 0
	for i, p := range pages {
		if i < len(pages)-1 && !p.Full() {
			t.Errorf("page %d not full", i)
		}
		n += p.TupleCount()
	}
	if n != total {
		t.Errorf("paginator emitted %d tuples, want %d", n, total)
	}
}

// TestPaginatorWrite: one Write of many tuples fills pages in order,
// hands over each page it fills and keeps the rest pending, and a page
// partly filled by Add takes up the next Write where Add left off.
func TestPaginatorWrite(t *testing.T) {
	g, err := NewPaginator(PageHeaderLen+3*10+4, 10) // 3 tuples and slack
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]byte, 8*10)
	for i := range tuples {
		tuples[i] = byte(i / 10)
	}
	var pages []*Page
	keep := func(pg *Page) { pages = append(pages, pg) }
	if full, err := g.Add(tuples[:10]); err != nil || full != nil {
		t.Fatalf("Add: %v, %v", full, err)
	}
	g.Write(tuples[10:70], keep) // tuples 1..6: fills pages of 0-2 and 3-5
	if len(pages) != 2 {
		t.Fatalf("Write handed over %d pages, want 2", len(pages))
	}
	g.Write(tuples[70:], keep)
	keep(g.Flush())
	var stream []byte
	for i, pg := range pages {
		if want := min(3, 8-3*i); pg.TupleCount() != want {
			t.Errorf("page %d holds %d tuples, want %d", i, pg.TupleCount(), want)
		}
		stream = append(stream, pg.Data()...)
	}
	if !bytes.Equal(stream, tuples) {
		t.Error("pages do not hold the written tuples in order")
	}
}

func TestPaginatorRejectsBadSizes(t *testing.T) {
	if _, err := NewPaginator(10, 100); err == nil {
		t.Error("NewPaginator with tiny page succeeded")
	}
}

func TestQuickPaginatorConservesTuples(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)
		g, err := NewPaginator(500, 20)
		if err != nil {
			return false
		}
		var inputs [][]byte
		var pages []*Page
		for i := 0; i < n; i++ {
			raw := make([]byte, 20)
			rng.Read(raw)
			inputs = append(inputs, raw)
			p, err := g.Add(raw)
			if err != nil {
				return false
			}
			if p != nil {
				pages = append(pages, p)
			}
		}
		if last := g.Flush(); last != nil {
			pages = append(pages, last)
		}
		var out [][]byte
		for _, p := range pages {
			p.EachRaw(func(raw []byte) bool {
				out = append(out, append([]byte(nil), raw...))
				return true
			})
		}
		if len(out) != len(inputs) {
			return false
		}
		for i := range out {
			if !bytes.Equal(out[i], inputs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
