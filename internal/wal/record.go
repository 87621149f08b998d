// Package wal implements the write-ahead log that makes the dfdbm
// service's write path crash-safe: a segmented, CRC-32C-framed redo
// log with group commit in front of per-relation heap files, and
// kill -9 recovery. It is the durability spine of the paper's
// three-level storage hierarchy — every acknowledged append/delete is
// durable on mass storage before the acknowledgement leaves the server.
//
// A data directory has one layout: heap files, their manifest, and the
// log. An append record carries the destination relation, a schema
// hash, and full post-images of the pages it touches; a delete record
// carries the target relation and the predicate text (replay is
// deterministic given prior state); a checkpoint record marks the LSN
// the heap files cover. Recovery loads the catalog the manifest names,
// replays each relation's log tail in LSN order, and truncates a torn
// tail at the first bad CRC instead of failing.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// RecordType identifies what a log record redoes.
type RecordType uint8

// Record types. The values are the on-disk type byte and never shift.
const (
	// recRetiredAppend is the logical tuple-payload append that builds
	// before PR 24 wrote for relations without a heap file. It is
	// refused on read; the value is retired, not reused.
	recRetiredAppend RecordType = 1
	// RecDelete redoes a delete: remove the tuples matching the
	// carried predicate text from the named relation and compact it.
	RecDelete RecordType = 2
	// RecCheckpoint marks a checkpoint: every record at or below
	// CoverLSN is reflected in the heap files, whose per-relation base
	// LSNs are the durable state recovery starts from.
	RecCheckpoint RecordType = 3
	// RecAppendPages redoes an append physically: overwrite (or
	// extend) the named relation's pages starting at slot First with
	// the carried full-page post-images. Appends are logged this way
	// because eviction write-backs mutate slots in place — a torn slot
	// write can damage pre-append tuples that logical redo could not
	// rebuild, whereas re-installing the whole post-image repairs the
	// slot no matter where it tore. Replay is idempotent by
	// construction.
	RecAppendPages RecordType = 4
)

// String returns the lower-case record-type name.
func (t RecordType) String() string {
	switch t {
	case RecDelete:
		return "delete"
	case RecCheckpoint:
		return "checkpoint"
	case RecAppendPages:
		return "append-pages"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ErrCorrupt marks log bytes that fail validation: a CRC mismatch, a
// truncated frame, or a structurally impossible value. Callers test
// with errors.Is. Corruption confined to the tail of the last segment
// is not an error — recovery truncates it — but corruption anywhere
// else surfaces as ErrCorrupt.
var ErrCorrupt = errors.New("wal: corrupt log")

// errRetiredAppend is the ErrCorrupt a type-1 record decodes to. It is
// told apart from a torn tail: the frame is whole and was acknowledged,
// so recovery refuses the log instead of truncating it away.
var errRetiredAppend = fmt.Errorf("%w: retired logical append record (written by builds before PR 24)", ErrCorrupt)

// Record is one redo-log record.
type Record struct {
	// LSN is the record's log sequence number, assigned by Append.
	// LSNs are dense: every record's LSN is its predecessor's plus
	// one, which lets recovery verify replay continuity.
	LSN uint64
	// Type says which of the remaining fields are meaningful.
	Type RecordType
	// Rel names the written relation (RecAppendPages, RecDelete).
	Rel string
	// SchemaHash fingerprints the destination schema at log time
	// (RecAppendPages); replay refuses a drifted schema rather than
	// corrupting tuples.
	SchemaHash uint64
	// Pages holds full post-image pages in relation.Page wire form,
	// starting at slot First (RecAppendPages).
	Pages [][]byte
	// First is the index of the first page slot the post-images in
	// Pages overwrite or extend (RecAppendPages).
	First uint64
	// Pred is the delete predicate in the query language's surface
	// syntax (RecDelete); replay re-parses it.
	Pred string
	// Base names the checkpoint's durable base — always "heap", the
	// heap files — and CoverLSN the highest LSN they reflect
	// (RecCheckpoint).
	Base     string
	CoverLSN uint64
}

// Summary renders the record's logical operation for logs and the
// inspect subcommand.
func (r *Record) Summary() string {
	switch r.Type {
	case RecDelete:
		return fmt.Sprintf("delete(%s, %s)", r.Rel, r.Pred)
	case RecCheckpoint:
		return fmt.Sprintf("checkpoint(%s, cover %d)", r.Base, r.CoverLSN)
	case RecAppendPages:
		return fmt.Sprintf("append-pages(%s, slots %d..%d)", r.Rel, r.First, r.First+uint64(len(r.Pages))-1)
	default:
		return r.Type.String()
	}
}

// Apply redoes the record against the catalog and returns the mutated
// relation (nil for checkpoints). The service write path and recovery
// both apply records through this one function, so a replayed log
// reproduces exactly the state the live writes built.
//
// Apply takes the record's page images with it: a decoded page adopts
// its blob (relation.UnmarshalPage), and the record owns every blob in
// Pages — fresh Page.Marshal output on the live path, slices of the
// payload buffer readRecord allocates per record on replay — so an
// installed page is those bytes, not a copy. The log has the record
// encoded before Apply runs; afterwards Pages must not be written to.
func (r *Record) Apply(cat *catalog.Catalog) (*relation.Relation, error) {
	switch r.Type {
	case RecAppendPages:
		dst, err := cat.Get(r.Rel)
		if err != nil {
			return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
		}
		if got := heap.SchemaHash(dst.Schema()); got != r.SchemaHash {
			return nil, fmt.Errorf("%w: lsn %d: schema of %q drifted (hash %016x, logged %016x)",
				ErrCorrupt, r.LSN, r.Rel, got, r.SchemaHash)
		}
		if int(r.First) > dst.NumPages() {
			return nil, fmt.Errorf("%w: lsn %d: append-pages at slot %d leaves a gap (%q has %d pages)",
				ErrCorrupt, r.LSN, r.First, r.Rel, dst.NumPages())
		}
		for i, blob := range r.Pages {
			pg, err := relation.UnmarshalPage(blob)
			if err != nil {
				return nil, fmt.Errorf("%w: lsn %d: page %d: %v", ErrCorrupt, r.LSN, i, err)
			}
			if err := dst.InstallPage(int(r.First)+i, pg); err != nil {
				return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
			}
		}
		cat.Touch(r.Rel)
		return dst, nil

	case RecDelete:
		target, err := cat.Get(r.Rel)
		if err != nil {
			return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
		}
		root, err := query.Parse(fmt.Sprintf("delete(%s, %s)", r.Rel, r.Pred))
		if err != nil || root.Kind != query.OpDelete {
			return nil, fmt.Errorf("%w: lsn %d: unreplayable delete predicate %q: %v", ErrCorrupt, r.LSN, r.Pred, err)
		}
		if target.Stored() {
			// Stored relations delete by copy-and-swap: materialize,
			// delete in memory, atomically rewrite the heap file with
			// base LSN = this record's LSN. Replay after a crash either
			// sees the old file (baseLSN < LSN, record re-applies) or
			// the new one (baseLSN >= LSN, record is skipped) — the
			// rename is the atomic commit.
			resident, err := target.Materialize()
			if err != nil {
				return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
			}
			if _, err := relalg.Delete(resident, root.Pred); err != nil {
				return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
			}
			if err := target.ReplaceStored(resident, r.LSN); err != nil {
				return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
			}
		} else if _, err := relalg.Delete(target, root.Pred); err != nil {
			return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
		}
		cat.Touch(r.Rel)
		return target, nil

	case RecCheckpoint:
		return nil, nil

	default:
		return nil, fmt.Errorf("%w: lsn %d: unknown record type %d", ErrCorrupt, r.LSN, uint8(r.Type))
	}
}

// Frame layout: u32 payload length | u32 CRC-32C of payload | payload.
// The payload starts with the type byte and LSN, then type-specific
// fields. All integers little-endian, strings u16-length-prefixed.
const frameHeaderLen = 8

// maxRecordLen bounds a single record payload; longer claims are
// treated as corruption rather than allocated.
const maxRecordLen = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encode renders the record as one frame ready to hit the segment.
func encode(r *Record) []byte {
	n := 1 + 8 + 2 + len(r.Rel) + 2 + len(r.Pred) + 2 + len(r.Base) + 8 + 8 + 4
	for _, b := range r.Pages {
		n += 4 + len(b)
	}
	buf := make([]byte, frameHeaderLen, frameHeaderLen+n)
	buf = append(buf, byte(r.Type))
	buf = binary.LittleEndian.AppendUint64(buf, r.LSN)
	switch r.Type {
	case RecAppendPages:
		buf = appendString(buf, r.Rel)
		buf = binary.LittleEndian.AppendUint64(buf, r.SchemaHash)
		buf = binary.LittleEndian.AppendUint64(buf, r.First)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Pages)))
		for _, b := range r.Pages {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
			buf = append(buf, b...)
		}
	case RecDelete:
		buf = appendString(buf, r.Rel)
		buf = appendString(buf, r.Pred)
	case RecCheckpoint:
		buf = appendString(buf, r.Base)
		buf = binary.LittleEndian.AppendUint64(buf, r.CoverLSN)
	}
	payload := buf[frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return buf
}

// readRecord decodes the next frame from r, which holds left more bytes
// (the rest of the segment). io.EOF means a clean end; any other failure
// — short read, CRC mismatch, bad structure — wraps ErrCorrupt. A length
// is a claim until its CRC checks, so one the segment cannot hold is
// refused before anything is allocated for it. The caller decides whether
// that is a truncatable torn tail or hard corruption.
func readRecord(r io.Reader, left int64) (*Record, int64, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: torn frame header: %v", ErrCorrupt, err)
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if plen == 0 || plen > maxRecordLen {
		return nil, 0, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, plen)
	}
	if int64(plen) > left-frameHeaderLen {
		return nil, 0, fmt.Errorf("%w: torn record payload: %d bytes claimed, %d left", ErrCorrupt, plen, left-frameHeaderLen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: torn record payload: %v", ErrCorrupt, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: record CRC mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, int64(frameHeaderLen) + int64(plen), nil
}

func decodePayload(p []byte) (*Record, error) {
	d := &decoder{buf: p}
	rec := &Record{Type: RecordType(d.u8()), LSN: d.u64()}
	switch rec.Type {
	case recRetiredAppend:
		return nil, fmt.Errorf("%w: lsn %d", errRetiredAppend, rec.LSN)
	case RecAppendPages:
		rec.Rel = d.str()
		rec.SchemaHash = d.u64()
		rec.First = d.u64()
		n := d.u32()
		if int64(n) > int64(len(p)-d.pos)/4 { // each page costs at least its 4-byte length
			return nil, fmt.Errorf("%w: implausible page count %d", ErrCorrupt, n)
		}
		rec.Pages = make([][]byte, 0, n)
		for i := uint32(0); i < n; i++ {
			rec.Pages = append(rec.Pages, d.bytes())
		}
	case RecDelete:
		rec.Rel = d.str()
		rec.Pred = d.str()
	case RecCheckpoint:
		rec.Base = d.str()
		rec.CoverLSN = d.u64()
	default:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, uint8(rec.Type))
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %s record decode: %v", ErrCorrupt, rec.Type, d.err)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %s record", ErrCorrupt, len(d.buf)-d.pos, rec.Type)
	}
	return rec, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// decoder is a bounds-checked little-endian cursor; the first failure
// sticks in err and every later read returns zero values.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.buf) {
		d.err = fmt.Errorf("need %d bytes at offset %d of %d", n, d.pos, len(d.buf))
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
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
	b := d.take(2)
	if b == nil {
		return ""
	}
	return string(d.take(int(binary.LittleEndian.Uint16(b))))
}

func (d *decoder) bytes() []byte {
	b := d.take(4)
	if b == nil {
		return nil
	}
	return d.take(int(binary.LittleEndian.Uint32(b)))
}
