// Package wire implements the dfdbm network query protocol: the frame
// format a client and the query server (internal/server) exchange over
// a TCP connection.
//
// The protocol is a length-prefixed binary framing, in the spirit of
// the database-file format of internal/catalog:
//
//	u8   frame type (Hello, Query, ResultPage, Error, Stats)
//	u32  payload length
//	...  payload (frame-specific, little-endian integers,
//	     u16-length-prefixed strings)
//
// A session opens with a Hello exchange that negotiates the protocol
// version: the client offers the range of versions it speaks, the
// server answers with the highest version both sides speak (or an
// Error frame when the ranges do not overlap). After the
// handshake the client sends Query frames, each carrying a
// client-chosen query ID, and the server answers every query with a
// stream of ResultPage frames (page blobs in relation.Page wire form,
// so the reassembled result is byte-identical to a local execution)
// terminated by one Stats frame, or with a single Error frame. Frames
// of different in-flight queries may interleave; the query ID ties
// them together.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"
)

// Protocol versions spoken by this build.
const (
	// MinVersion is the oldest protocol revision this build accepts.
	// Version 1, without the tracing fields, was dropped after f2ebb02.
	MinVersion = 2
	// Version is the current protocol revision. Version 2 carries
	// end-to-end tracing: a server-assigned session ID on the Hello
	// reply, a TraceID on Query and Stats frames, and the per-stage
	// lifecycle breakdown (admit-wait, schedule, stream) on Stats.
	Version = 2
)

// MaxFrameLen bounds a frame payload; a peer announcing more is
// protocol-broken and the connection is dropped rather than buffered.
const MaxFrameLen = 64 << 20

// SessionQueryID is the query ID used by Error frames that concern the
// whole session rather than one query (handshake failures, shutdown).
const SessionQueryID = ^uint32(0)

// Type identifies a frame.
type Type uint8

// The five frame types.
const (
	TypeHello Type = iota + 1
	TypeQuery
	TypeResultPage
	TypeError
	TypeStats
)

// String returns the frame-type name.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeQuery:
		return "query"
	case TypeResultPage:
		return "result-page"
	case TypeError:
		return "error"
	case TypeStats:
		return "stats"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Error codes carried by Error frames. Codes, not messages, are the
// machine-readable contract: clients dispatch on Code and surface Msg.
const (
	// CodeOverloaded: the admission queue (or the session's in-flight
	// budget, or the server's session table) is full; retry later.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down and rejects new work.
	CodeDraining = "draining"
	// CodeParse: the query text failed to parse or bind.
	CodeParse = "parse"
	// CodeExec: the engine failed executing the query.
	CodeExec = "exec"
	// CodeProtocol: the peer broke framing or the handshake.
	CodeProtocol = "protocol"
	// CodeVersion: no protocol version is spoken by both sides.
	CodeVersion = "version"
)

// Frame is one protocol frame.
type Frame interface {
	// Type returns the frame's wire type.
	Type() Type
	encode(e *encoder)
	decode(d *decoder)
}

// Hello opens a session. The client sends its supported version range;
// the server replies with Min == Max == the negotiated version and the
// session's engine.
type Hello struct {
	// Min and Max delimit the sender's supported protocol versions.
	Min, Max uint16
	// Engine names the session's execution engine. The one value is
	// "core", the concurrent data-flow engine: the server always
	// replies with it, and refuses a client Hello naming anything else
	// (empty means the default) with a CodeProtocol Error frame.
	Engine string
	// Name optionally identifies the peer for traces and spans.
	Name string
	// SessionID is the server-assigned session identifier, set only on
	// the server's Hello reply; it names the session in the server's
	// spans, flight recorder, and /queries output. The field is
	// self-describing on the wire (appended only when nonzero), so a
	// client Hello reads the same whatever versions it offers.
	SessionID uint64
}

// Type returns TypeHello.
func (*Hello) Type() Type { return TypeHello }

func (h *Hello) encode(e *encoder) {
	e.u16(h.Min)
	e.u16(h.Max)
	e.str(h.Engine)
	e.str(h.Name)
	if h.SessionID != 0 {
		e.u64(h.SessionID)
	}
}

func (h *Hello) decode(d *decoder) {
	h.Min = d.u16()
	h.Max = d.u16()
	h.Engine = d.str()
	h.Name = d.str()
	if d.err == nil && len(d.b) >= 8 {
		h.SessionID = d.u64()
	}
}

// Negotiate returns the protocol version a server speaking
// [serverMin, serverMax] should use with a client offering
// [clientMin, clientMax]: the highest version inside both ranges.
func Negotiate(clientMin, clientMax, serverMin, serverMax uint16) (uint16, error) {
	v := clientMax
	if serverMax < v {
		v = serverMax
	}
	if v < clientMin || v < serverMin {
		return 0, fmt.Errorf("wire: no common protocol version (client %d-%d, server %d-%d)",
			clientMin, clientMax, serverMin, serverMax)
	}
	return v, nil
}

// Query submits one query for execution.
type Query struct {
	// ID is chosen by the client and echoed on every frame answering
	// this query. SessionQueryID is reserved.
	ID uint32
	// Priority selects the admission lane: 0 high, 1 normal, 2 low.
	Priority uint8
	// Text is the query in the surface syntax of internal/query.
	Text string
	// TraceID is a client-proposed trace identifier. Zero asks
	// the server to assign one; either way the Stats frame echoes the
	// trace ID in force so the client can correlate its own spans with
	// the server's.
	TraceID uint64
}

// Type returns TypeQuery.
func (*Query) Type() Type { return TypeQuery }

func (q *Query) encode(e *encoder) {
	e.u32(q.ID)
	e.u8(q.Priority)
	e.str(q.Text)
	e.u64(q.TraceID)
}

func (q *Query) decode(d *decoder) {
	q.ID = d.u32()
	q.Priority = d.u8()
	q.Text = d.str()
	q.TraceID = d.u64()
}

// SchemaAttr is one attribute of a result schema as carried on the
// wire (mirrors relation.Attr without importing it; wire stays a leaf
// package).
type SchemaAttr struct {
	Name  string
	Type  uint8
	Width uint32
}

// ResultPage carries one page of a query result. The first page of a
// result (Seq 0) also carries the result schema, relation name, and
// page size so the client can rebuild the relation; the final frame
// has Last set (a Last frame with no page blob terminates an empty
// result).
type ResultPage struct {
	QueryID uint32
	// Seq numbers the pages of one result from 0.
	Seq uint32
	// Last marks the final frame of the result stream.
	Last bool
	// Name, PageSize, and Schema describe the result relation; set
	// only on Seq 0.
	Name     string
	PageSize uint32
	Schema   []SchemaAttr
	// Page is the page blob in relation.Page wire form (Marshal), or
	// empty on a pure end-of-stream marker. A decoded frame's Page
	// aliases the payload buffer read for that frame, which the frame
	// owns. A sender holding the page itself encodes the frame with
	// AppendResultHead instead.
	Page []byte
}

// PageBlob is a page as its holder keeps it: its wire form, a
// ResultPage blob, is the header AppendHeader appends followed by Data.
// *relation.Page implements it (wire stays a leaf package).
type PageBlob interface {
	AppendHeader(dst []byte) []byte
	Data() []byte
}

// Type returns TypeResultPage.
func (*ResultPage) Type() Type { return TypeResultPage }

func (p *ResultPage) encode(e *encoder) {
	p.encodeFields(e)
	e.bytes(p.Page)
}

// encodeFields encodes everything of p before its page blob.
func (p *ResultPage) encodeFields(e *encoder) {
	e.u32(p.QueryID)
	e.u32(p.Seq)
	var flags uint8
	if p.Last {
		flags |= 1
	}
	if p.Seq == 0 {
		flags |= 2
	}
	e.u8(flags)
	if p.Seq == 0 {
		e.str(p.Name)
		e.u32(p.PageSize)
		if len(p.Schema) > maxStrLen {
			e.fail(fmt.Errorf("schema of %d attributes exceeds the wire limit of %d", len(p.Schema), maxStrLen))
			return
		}
		e.u16(uint16(len(p.Schema)))
		for _, a := range p.Schema {
			e.str(a.Name)
			e.u8(a.Type)
			e.u32(a.Width)
		}
	}
}

func (p *ResultPage) decode(d *decoder) {
	p.QueryID = d.u32()
	p.Seq = d.u32()
	flags := d.u8()
	p.Last = flags&1 != 0
	if flags&2 != 0 {
		p.Name = d.str()
		p.PageSize = d.u32()
		n := int(d.u16())
		if d.err == nil && n > 0 {
			p.Schema = make([]SchemaAttr, n)
			for i := range p.Schema {
				p.Schema[i].Name = d.str()
				p.Schema[i].Type = d.u8()
				p.Schema[i].Width = d.u32()
			}
		}
	}
	p.Page = d.bytes()
}

// Error reports a failed query (or, with QueryID == SessionQueryID, a
// failed session).
type Error struct {
	QueryID uint32
	// Code is one of the Code* constants.
	Code string
	// Msg is the human-readable detail.
	Msg string
}

// Type returns TypeError.
func (*Error) Type() Type { return TypeError }

func (e *Error) encode(enc *encoder) {
	enc.u32(e.QueryID)
	enc.str(e.Code)
	enc.str(e.Msg)
}

func (e *Error) decode(d *decoder) {
	e.QueryID = d.u32()
	e.Code = d.str()
	e.Msg = d.str()
}

// Stats closes a successful result stream with the server-side
// accounting of the query.
type Stats struct {
	QueryID uint32
	// Engine names the engine that executed the query.
	Engine string
	// Tuples, Pages, and ResultBytes size the result.
	Tuples      int64
	Pages       int64
	ResultBytes int64
	// Queued is how long the query waited for admission; Exec is the
	// engine execution time.
	Queued time.Duration
	Exec   time.Duration
	// Deferred reports whether admission was delayed by a read/write
	// conflict with a concurrently running query.
	Deferred bool
	// TraceID is the trace identifier in force for this query on
	// the server, echoed so the client can link its round trip to the
	// server's span tree and flight-recorder entry.
	TraceID uint64
	// AdmitWait, Sched, and Stream break the server-side lifecycle into
	// stages: AdmitWait is time spent queued before the scheduler
	// admitted the query (Queued = AdmitWait + Sched), Sched is the
	// admit-to-run dispatch latency, and Stream is the time spent
	// writing result pages back to the client.
	AdmitWait time.Duration
	Sched     time.Duration
	Stream    time.Duration
}

// Type returns TypeStats.
func (*Stats) Type() Type { return TypeStats }

func (s *Stats) encode(e *encoder) {
	e.u32(s.QueryID)
	e.str(s.Engine)
	e.u64(uint64(s.Tuples))
	e.u64(uint64(s.Pages))
	e.u64(uint64(s.ResultBytes))
	e.u64(uint64(s.Queued))
	e.u64(uint64(s.Exec))
	var flags uint8
	if s.Deferred {
		flags = 1
	}
	e.u8(flags)
	e.u64(s.TraceID)
	e.u64(uint64(s.AdmitWait))
	e.u64(uint64(s.Sched))
	e.u64(uint64(s.Stream))
}

func (s *Stats) decode(d *decoder) {
	s.QueryID = d.u32()
	s.Engine = d.str()
	s.Tuples = int64(d.u64())
	s.Pages = int64(d.u64())
	s.ResultBytes = int64(d.u64())
	s.Queued = time.Duration(d.u64())
	s.Exec = time.Duration(d.u64())
	s.Deferred = d.u8()&1 != 0
	s.TraceID = d.u64()
	s.AdmitWait = time.Duration(d.u64())
	s.Sched = time.Duration(d.u64())
	s.Stream = time.Duration(d.u64())
}

// Write encodes f at the current protocol Version and writes it to w
// as one frame. A frame carrying a field that cannot be represented on
// the wire (a string or schema longer than its length prefix can
// express, or a payload over MaxFrameLen) is refused here, before any
// bytes reach the peer.
func Write(w io.Writer, f Frame) error { return WriteVersion(w, f, Version) }

// WriteVersion encodes f at the given negotiated protocol version and
// writes it to w as one frame, in one Write. A version this build does
// not speak is refused.
func WriteVersion(w io.Writer, f Frame, ver uint16) error {
	if err := checkVersion(ver); err != nil {
		return err
	}
	b, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendResultHead appends the head of p's frame to dst: the frame
// header, p's fields, the blob length and src's page header. The frame
// is that head followed by src.Data(), which the caller sends right
// behind it as the page holds it, so the payload is never copied; the
// bytes are those AppendFrame encodes with src's wire form as p.Page.
// With a nil src the head is AppendFrame's whole frame. A frame that
// cannot be represented on the wire is refused as AppendFrame refuses
// it, and dst is returned as it came.
func AppendResultHead(dst []byte, p *ResultPage, src PageBlob) ([]byte, error) {
	e := beginFrame(dst, TypeResultPage)
	if src == nil {
		p.encode(&e)
		return e.endFrame(dst, TypeResultPage, 0)
	}
	p.encodeFields(&e)
	at := len(e.b)
	e.u32(0) // the blob length, known once the header is in
	e.b = src.AppendHeader(e.b)
	data := len(src.Data())
	binary.LittleEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4+data))
	return e.endFrame(dst, TypeResultPage, data)
}

// checkVersion refuses a protocol version outside [MinVersion, Version].
func checkVersion(ver uint16) error {
	if ver < MinVersion || ver > Version {
		return fmt.Errorf("wire: protocol version %d not spoken (this build speaks %d-%d)", ver, MinVersion, Version)
	}
	return nil
}

// frameHeaderLen is the type byte plus the u32 payload length.
const frameHeaderLen = 5

// AppendFrame encodes f onto dst — the
// payload is built behind a reserved header, in place, so a frame is
// encoded once and copied never — and returns the extended buffer. A
// caller queueing several frames appends them to one buffer and hands
// it to a single Write. A frame that cannot be represented on the wire
// is refused as Write refuses it, and dst is returned as it came.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	e := beginFrame(dst, f.Type())
	f.encode(&e)
	return e.endFrame(dst, f.Type(), 0)
}

// frameReserve is the room beginFrame makes sure of: more than the
// header and fixed fields of any frame.
const frameReserve = 64

// beginFrame reserves the frame header behind dst, with room for any
// frame's fixed fields up front: an empty dst then grows at most once
// more, for a page blob.
func beginFrame(dst []byte, t Type) encoder {
	return encoder{b: append(slices.Grow(dst, frameReserve), byte(t), 0, 0, 0, 0)}
}

// endFrame fills in the payload length — what e holds past the header
// and tail bytes the caller sends after it — and returns the extended
// buffer, or dst as it came if the frame cannot be represented.
func (e *encoder) endFrame(dst []byte, t Type, tail int) ([]byte, error) {
	if e.err != nil {
		return dst, fmt.Errorf("wire: encoding %s frame: %w", t, e.err)
	}
	n := len(e.b) - len(dst) - frameHeaderLen + tail
	if n > MaxFrameLen {
		return dst, fmt.Errorf("wire: %s frame payload is %d bytes, max %d", t, n, MaxFrameLen)
	}
	binary.LittleEndian.PutUint32(e.b[len(dst)+1:], uint32(n))
	return e.b, nil
}

// Read reads and decodes one frame from r at the current protocol
// Version. It returns io.EOF untouched on a clean end of stream (so
// callers can detect an orderly close) and a wrapped error on a torn
// frame or malformed payload.
func Read(r io.Reader) (Frame, error) { return ReadVersion(r, Version) }

// ReadVersion reads and decodes one frame from r at the given
// negotiated protocol version. A version this build does not speak is
// refused.
func ReadVersion(r io.Reader, ver uint16) (Frame, error) {
	if err := checkVersion(ver); err != nil {
		return nil, err
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrameLen {
		return nil, fmt.Errorf("wire: frame announces %d-byte payload, max %d", n, MaxFrameLen)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: reading %d-byte %s payload: %w", n, Type(hdr[0]), err)
	}
	var f Frame
	switch Type(hdr[0]) {
	case TypeHello:
		f = &Hello{}
	case TypeQuery:
		f = &Query{}
	case TypeResultPage:
		f = &ResultPage{}
	case TypeError:
		f = &Error{}
	case TypeStats:
		f = &Stats{}
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", hdr[0])
	}
	d := decoder{b: payload}
	f.decode(&d)
	if d.err != nil {
		return nil, fmt.Errorf("wire: decoding %s frame: %w", f.Type(), d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("wire: %s frame has %d trailing bytes", f.Type(), len(d.b))
	}
	return f, nil
}

// maxStrLen bounds a u16-length-prefixed field: strings and the schema
// attribute count. Longer values cannot be expressed on the wire;
// truncating the prefix would desync the peer's decoder, so the
// encoder latches an error instead and Write refuses the frame.
const maxStrLen = 1<<16 - 1

// encoder builds a frame payload, latching the first error.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *encoder) str(s string) {
	if len(s) > maxStrLen {
		e.fail(fmt.Errorf("string field of %d bytes exceeds the %d-byte wire limit", len(s), maxStrLen))
		return
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// decoder consumes a frame payload, latching the first error.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = fmt.Errorf("payload truncated (want %d bytes, have %d)", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	// The payload was allocated for this frame alone, so the field may
	// alias it; the capacity stops at the field so an append by the
	// frame's owner cannot reach the bytes behind it.
	return b[:n:n]
}
