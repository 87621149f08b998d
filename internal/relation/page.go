package relation

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// PageHeaderLen is the number of bytes of header carried by every page
// when it is serialized or moved through an interconnection network. The
// header identifies the page and lets a receiver decode it without out-
// of-band information.
const PageHeaderLen = 16

// pageMagic marks serialized pages.
const pageMagic uint32 = 0xDF_DB_19_79

// DefaultPageSize is the operand page size assumed for DIRECT in the
// paper's Section 4 (16 KB operands, which an LSI-11 reads in 33 ms).
const DefaultPageSize = 16 * 1024

// AnalysisPageSize is the 1000-byte page used in the Section 3.3
// arbitration-network bandwidth analysis (ten 100-byte tuples per page).
const AnalysisPageSize = 1000

// Page is a fixed-capacity container of fixed-length tuples: the unit of
// storage, transfer, and — at page-level granularity — scheduling. Pages
// begin partially filled and may be compressed together (FillFrom) by an
// instruction controller before being stored, as described in the paper.
type Page struct {
	size     int // serialized size budget: header + payload capacity
	tupleLen int
	capBytes int    // payload capacity in bytes: Capacity()*tupleLen, precomputed
	data     []byte // encoded tuples, len == TupleCount()*tupleLen
	// counted is set on a page from Get: refs counts its holders, and the
	// last to let go sends it back to the free list.
	counted bool
	refs    atomic.Int32
}

// CheckPageGeometry reports whether a page of pageSize bytes can hold
// tuples of tupleLen bytes: pageSize must leave room for the header and
// at least one tuple.
func CheckPageGeometry(pageSize, tupleLen int) error {
	if tupleLen <= 0 {
		return fmt.Errorf("relation: tuple length %d must be positive", tupleLen)
	}
	if pageSize < PageHeaderLen+tupleLen {
		return fmt.Errorf("relation: page size %d too small for header plus one %d-byte tuple", pageSize, tupleLen)
	}
	return nil
}

// NewPage returns an empty page that serializes to at most pageSize bytes
// and holds tuples of tupleLen bytes. The payload is allocated once, at
// the page's full capacity — pageSize less the header, whatever the
// tuple length, so the free list can reuse it for any tuple length — and
// filling the page never grows it.
func NewPage(pageSize, tupleLen int) (*Page, error) {
	if err := CheckPageGeometry(pageSize, tupleLen); err != nil {
		return nil, err
	}
	p := &Page{size: pageSize, data: make([]byte, 0, pageSize-PageHeaderLen)}
	p.setTupleLen(tupleLen)
	return p, nil
}

// setTupleLen (re)formats an empty page for tuples of tupleLen bytes.
func (p *Page) setTupleLen(tupleLen int) {
	p.tupleLen = tupleLen
	p.capBytes = (p.size - PageHeaderLen) / tupleLen * tupleLen
}

// MustNewPage is NewPage but panics on error.
func MustNewPage(pageSize, tupleLen int) *Page {
	p, err := NewPage(pageSize, tupleLen)
	if err != nil {
		panic(err)
	}
	return p
}

// PageSize returns the serialized size budget of the page.
func (p *Page) PageSize() int { return p.size }

// TupleLen returns the byte length of tuples stored in the page.
func (p *Page) TupleLen() int { return p.tupleLen }

// Capacity returns the maximum number of tuples the page can hold.
func (p *Page) Capacity() int { return (p.size - PageHeaderLen) / p.tupleLen }

// TupleCount returns the number of tuples currently in the page.
func (p *Page) TupleCount() int { return len(p.data) / p.tupleLen }

// Full reports whether the page has no free slots.
func (p *Page) Full() bool { return len(p.data) >= p.capBytes }

// Empty reports whether the page holds no tuples.
func (p *Page) Empty() bool { return len(p.data) == 0 }

// AppendRaw appends an already-encoded tuple to the page.
func (p *Page) AppendRaw(raw []byte) error {
	if len(raw) != p.tupleLen {
		return fmt.Errorf("relation: raw tuple is %d bytes, page holds %d-byte tuples", len(raw), p.tupleLen)
	}
	if p.Full() {
		return fmt.Errorf("relation: page full (%d tuples)", p.TupleCount())
	}
	p.data = append(p.data, raw...)
	return nil
}

// AppendTuple encodes t under schema s and appends it to the page.
func (p *Page) AppendTuple(s *Schema, t Tuple) error {
	if s.TupleLen() != p.tupleLen {
		return fmt.Errorf("relation: schema tuple length %d != page tuple length %d", s.TupleLen(), p.tupleLen)
	}
	if p.Full() {
		return fmt.Errorf("relation: page full (%d tuples)", p.TupleCount())
	}
	enc, err := EncodeTuple(p.data, s, t)
	if err != nil {
		return err
	}
	p.data = enc
	return nil
}

// RawTuple returns the encoded bytes of tuple i. The returned slice
// aliases the page; callers must not modify it.
func (p *Page) RawTuple(i int) []byte {
	return p.data[i*p.tupleLen : (i+1)*p.tupleLen]
}

// Data returns the page's encoded tuple bytes: TupleCount()*TupleLen()
// contiguous fixed-width tuples. The slice aliases the page and must be
// treated as read-only. Batch kernels scan it directly instead of
// slicing per tuple through RawTuple.
func (p *Page) Data() []byte { return p.data }

// Tuple decodes tuple i under schema s.
func (p *Page) Tuple(i int, s *Schema) (Tuple, error) {
	return DecodeTuple(s, p.RawTuple(i))
}

// EachRaw calls fn for every encoded tuple in the page, stopping early if
// fn returns false.
func (p *Page) EachRaw(fn func(raw []byte) bool) {
	n := p.TupleCount()
	for i := 0; i < n; i++ {
		if !fn(p.RawTuple(i)) {
			return
		}
	}
}

// WireSize returns the number of bytes the page occupies on an
// interconnection network: the header plus the bytes of the tuples it
// actually holds. Partially full pages travel compacted.
func (p *Page) WireSize() int { return PageHeaderLen + len(p.data) }

// FillFrom moves tuples from src into p until p is full or src is empty,
// returning the number of tuples moved. This is the page "compression"
// an instruction controller performs on arriving partial pages so that
// its memory and cache segment hold only full pages. The moved tuples
// are src's last ones, taken as one block in their order: one copy, and
// src keeps its leading tuples in place.
func (p *Page) FillFrom(src *Page) (int, error) {
	if src.tupleLen != p.tupleLen {
		return 0, fmt.Errorf("relation: cannot compress %d-byte tuples into %d-byte-tuple page", src.tupleLen, p.tupleLen)
	}
	k := min(p.capBytes-len(p.data), len(src.data))
	rest := len(src.data) - k
	p.data = append(p.data, src.data[rest:]...)
	src.data = src.data[:rest]
	return k / p.tupleLen, nil
}

// Clone returns a deep copy of the page.
func (p *Page) Clone() *Page {
	out := &Page{size: p.size, tupleLen: p.tupleLen, capBytes: p.capBytes}
	out.data = append([]byte(nil), p.data...)
	return out
}

// Marshal serializes the page (header plus payload). The result is
// WireSize() bytes long.
func (p *Page) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.WireSize()))
}

// AppendMarshal appends the page's serialized form (what Marshal
// returns) to dst and returns the extended slice, so a caller framing
// many pages encodes each straight into its own buffer.
func (p *Page) AppendMarshal(dst []byte) []byte {
	return append(p.AppendHeader(dst), p.data...)
}

// AppendHeader appends the page's PageHeaderLen-byte header to dst and
// returns the extended slice. The serialized page is that header
// followed by Data(), so a sender can put the two on the wire apart and
// never copy the payload.
func (p *Page) AppendHeader(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, pageMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.tupleLen))
	return binary.LittleEndian.AppendUint32(dst, uint32(p.TupleCount()))
}

// parsePageBlob validates a page serialized by Marshal — magic,
// geometry, length against the header's count, count against capacity —
// and returns its geometry and its payload, a view of b.
func parsePageBlob(b []byte) (size, tupleLen int, payload []byte, err error) {
	if len(b) < PageHeaderLen {
		return 0, 0, nil, fmt.Errorf("relation: page blob too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != pageMagic {
		return 0, 0, nil, fmt.Errorf("relation: bad page magic %#x", binary.LittleEndian.Uint32(b))
	}
	size = int(binary.LittleEndian.Uint32(b[4:]))
	tupleLen = int(binary.LittleEndian.Uint32(b[8:]))
	count := int(binary.LittleEndian.Uint32(b[12:]))
	if err := CheckPageGeometry(size, tupleLen); err != nil {
		return 0, 0, nil, err
	}
	if want := count * tupleLen; len(b) != PageHeaderLen+want {
		return 0, 0, nil, fmt.Errorf("relation: page blob is %d bytes, header says %d", len(b), PageHeaderLen+want)
	}
	if capacity := (size - PageHeaderLen) / tupleLen; count > capacity {
		return 0, 0, nil, fmt.Errorf("relation: page blob holds %d tuples, capacity is %d", count, capacity)
	}
	return size, tupleLen, b[PageHeaderLen:], nil
}

// UnmarshalPage parses a page serialized by Marshal and takes ownership
// of b: the page's payload is b's tail, not a copy of it, so the caller
// must neither reuse nor write to b afterwards (a caller whose blob is a
// reused buffer or part of a larger one passes bytes.Clone(b), or decodes
// into a page it already has with Page.Load). The payload's capacity is
// clipped to its length: appending to a decoded page reallocates instead
// of writing past the blob.
func UnmarshalPage(b []byte) (*Page, error) {
	size, tupleLen, payload, err := parsePageBlob(b)
	if err != nil {
		return nil, err
	}
	p := &Page{size: size, data: payload[:len(payload):len(payload)]}
	p.setTupleLen(tupleLen)
	return p, nil
}

// Load overwrites p with the page serialized in b, which must be of p's
// page size, copying the payload into p's own: b stays the caller's, and a
// full-capacity page (NewPage, the free list's) decodes without allocating.
func (p *Page) Load(b []byte) error {
	size, tupleLen, payload, err := parsePageBlob(b)
	if err != nil {
		return err
	}
	if size != p.size {
		return fmt.Errorf("relation: blob of a %d-byte page loaded into a %d-byte page", size, p.size)
	}
	p.setTupleLen(tupleLen)
	p.data = append(p.data[:0], payload...)
	return nil
}

// Retain adds a holder to a page from Get. On any other page — one
// nobody counts the holders of — it does nothing.
func (p *Page) Retain() {
	if p.counted {
		p.refs.Add(1)
	}
}

// Release drops one holder of a page from Get, who must not touch it
// again: the last one out sends it back to the free list. One release too
// many panics. On any other page, and on nil, it does nothing. ReleaseAll
// lets go of a run of pages at once.
func (p *Page) Release() {
	if p.release() {
		recycle([]*Page{p})
	}
}

// release drops one holder and reports whether it was the last of a
// counted page.
func (p *Page) release() bool {
	if p == nil || !p.counted {
		return false
	}
	n := p.refs.Add(-1)
	if n < 0 {
		panic("relation: Release of a page with no holder left")
	}
	return n == 0
}

// Paginator accumulates encoded tuples and emits full pages, drawn from
// the free list (Get). Operators use it to turn their per-tuple output
// stream into the page stream the data-flow machine moves around.
type Paginator struct {
	pageSize int
	tupleLen int
	cur      *Page
}

// NewPaginator returns a paginator producing pages of the given size for
// tuples of the given length.
func NewPaginator(pageSize, tupleLen int) (*Paginator, error) {
	if err := CheckPageGeometry(pageSize, tupleLen); err != nil {
		return nil, err
	}
	g := &Paginator{}
	g.Reset(pageSize, tupleLen)
	return g, nil
}

// Reset re-aims the paginator, zero value included, at a page geometry
// the caller has already validated, dropping any pending page: one
// paginator then serves every instruction packet a worker executes.
func (g *Paginator) Reset(pageSize, tupleLen int) {
	*g = Paginator{pageSize: pageSize, tupleLen: tupleLen}
}

// Add appends one encoded tuple. If the current page becomes full it is
// returned (and a fresh page started); otherwise Add returns nil.
func (g *Paginator) Add(raw []byte) (*Page, error) {
	if len(raw) != g.tupleLen {
		return nil, fmt.Errorf("relation: raw tuple is %d bytes, paginator holds %d-byte tuples", len(raw), g.tupleLen)
	}
	return g.Commit(copy(g.Room(), raw)), nil
}

// Room returns the free payload of the page being filled, taking a page
// from the free list if none is: room for at least one tuple, and a whole
// number of them. A writer copies tuples to its start and hands them to
// the page with Commit; nothing else writes to the page meanwhile.
func (g *Paginator) Room() []byte {
	if g.cur == nil {
		g.cur = mustGet(g.pageSize, g.tupleLen)
	}
	return g.cur.data[len(g.cur.data):g.cur.capBytes]
}

// Commit adds the n bytes written at the start of Room — whole tuples —
// to the page. If that fills it, Commit returns it, and the next Room
// starts another; otherwise it returns nil.
func (g *Paginator) Commit(n int) *Page {
	g.cur.data = g.cur.data[:len(g.cur.data)+n]
	if !g.cur.Full() {
		return nil
	}
	out := g.cur
	g.cur = nil
	return out
}

// Write copies whole tuples into the pages being filled, a page's Room
// at a time, and hands each page it fills to full.
func (g *Paginator) Write(tuples []byte, full func(*Page)) {
	for len(tuples) > 0 {
		k := copy(g.Room(), tuples)
		tuples = tuples[k:]
		if pg := g.Commit(k); pg != nil {
			full(pg)
		}
	}
}

// Flush returns the final partial page, or nil if no tuples are pending.
func (g *Paginator) Flush() *Page {
	out := g.cur
	g.cur = nil
	if out != nil && out.Empty() {
		return nil
	}
	return out
}
