// Package wal implements the write-ahead log that makes the dfdbm
// service's write path crash-safe: a segmented, CRC-32C-framed redo
// log with group commit in front of per-relation heap files, and
// kill -9 recovery. It is the durability spine of the paper's
// three-level storage hierarchy — every acknowledged append/delete is
// durable on mass storage before the acknowledgement leaves the server.
// Write is every write's one path, with a log or without: build the
// record, log it when there is a log, apply it as recovery does.
//
// A data directory has one layout: heap files, their manifest, and the
// log. A write is the pages it leaves behind: its record carries the
// destination relation, a schema hash, and full post-images of the
// pages from the first one it changes to the relation's new end — an
// append's filled and added pages, a delete's survivors packed from the
// first page that loses a tuple — and replay installs them and ends the
// relation there. A checkpoint record marks the LSN the heap files
// cover. Recovery loads the catalog the manifest names, replays each
// relation's log tail in LSN order, and truncates a torn tail at the
// first bad CRC instead of failing.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/relation"
)

// RecordType identifies what a log record redoes.
type RecordType uint8

// Record types. The values are the on-disk type byte and never shift.
const (
	// recRetiredAppend is the logical tuple-payload append that older
	// builds wrote for relations without a heap file, and
	// recRetiredDelete the predicate delete, replayed by re-evaluating
	// its predicate, that builds up to commit aca61d3 wrote. Both are
	// refused on read; the values are retired, not reused.
	recRetiredAppend RecordType = 1
	recRetiredDelete RecordType = 2
	// RecCheckpoint marks a checkpoint: every record at or below
	// CoverLSN is reflected in the heap files, whose per-relation base
	// LSNs are the durable state recovery starts from.
	RecCheckpoint RecordType = 3
	// RecPages redoes a write physically: overwrite (or extend) the
	// named relation's pages starting at slot First with the carried
	// full-page post-images, then end the relation after the last of
	// them. Appends and deletes are both logged this way. Eviction
	// write-backs mutate slots in place — a torn slot write can damage
	// tuples that logical redo could not rebuild, whereas re-installing
	// the whole post-image repairs the slot no matter where it tore.
	// Replay is idempotent by construction.
	RecPages RecordType = 4
)

// String returns the lower-case record-type name.
func (t RecordType) String() string {
	switch t {
	case RecCheckpoint:
		return "checkpoint"
	case RecPages:
		return "pages"
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

// errRetiredAppend and errRetiredDelete are the ErrCorrupt a type-1 and
// a type-2 record decode to, and errBadImage the one a pages record
// carrying a page image that does not parse decodes to. All are told
// apart from a torn tail: the frame is whole and was acknowledged, so
// recovery refuses the log instead of truncating it away
// (acknowledged).
var (
	errRetiredAppend = fmt.Errorf("%w: retired logical append record (written by builds before PR 24)", ErrCorrupt)
	errRetiredDelete = fmt.Errorf("%w: retired predicate delete record (written by builds at or before commit aca61d3)", ErrCorrupt)
	errBadImage      = fmt.Errorf("%w: pages record's page image does not parse", ErrCorrupt)
)

// acknowledged reports whether a record error came from a whole frame
// whose content is refused, rather than from torn or damaged bytes.
func acknowledged(err error) bool {
	return errors.Is(err, errRetiredAppend) || errors.Is(err, errRetiredDelete) || errors.Is(err, errBadImage)
}

// ErrTooLarge is what Log.Append returns for a record whose payload
// would pass maxRecordLen: recovery could not read it back, so it is
// refused before it takes an LSN. Callers test with errors.Is.
var ErrTooLarge = errors.New("wal: record too large")

// Record is one redo-log record.
type Record struct {
	// LSN is the record's log sequence number, assigned by Append.
	// LSNs are dense: every record's LSN is its predecessor's plus
	// one, which lets recovery verify replay continuity.
	LSN uint64
	// Type says which of the remaining fields are meaningful.
	Type RecordType
	// Rel names the written relation (RecPages).
	Rel string
	// SchemaHash fingerprints the destination schema at log time
	// (RecPages); replay refuses a drifted schema rather than
	// corrupting tuples.
	SchemaHash uint64
	// Pages holds full post-image pages, starting at slot First
	// (RecPages): the pages AppendRecord or DeleteRecord built, or on
	// replay the pages decoded from the frame. Apply installs these very
	// pages, and the relation ends after the last: it has First +
	// len(Pages) pages.
	Pages []*relation.Page
	// First is the index of the first page slot the post-images in
	// Pages overwrite or extend (RecPages).
	First uint64
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
	case RecCheckpoint:
		return fmt.Sprintf("checkpoint(%s, cover %d)", r.Base, r.CoverLSN)
	case RecPages:
		return fmt.Sprintf("pages(%s, %d images from slot %d, %d pages)", r.Rel, len(r.Pages), r.First, r.First+uint64(len(r.Pages)))
	default:
		return r.Type.String()
	}
}

// Apply redoes the record against the catalog and returns the mutated
// relation (nil for checkpoints): it installs the post-images from slot
// First on, then ends the relation after the last of them. An append's
// images always reach the relation's last page, so the end moves only
// for a delete. The service write path and recovery both apply records
// through this one function, so a replayed log reproduces exactly the
// state the live writes built.
//
// Apply takes the record's page images with it: the record owns every
// page in Pages — AppendRecord's or DeleteRecord's fresh pages on the
// live path, pages adopting slices of the payload buffer readRecord
// allocates per record on replay — so an installed page is those bytes,
// not a copy. The log has the record encoded before Apply runs;
// afterwards Pages must not be written to.
func (r *Record) Apply(cat *catalog.Catalog) (*relation.Relation, error) {
	switch r.Type {
	case RecPages:
		dst, err := cat.Get(r.Rel)
		if err != nil {
			return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
		}
		if got := heap.SchemaHash(dst.Schema()); got != r.SchemaHash {
			return nil, fmt.Errorf("%w: lsn %d: schema of %q drifted (hash %016x, logged %016x)",
				ErrCorrupt, r.LSN, r.Rel, got, r.SchemaHash)
		}
		if int(r.First) > dst.NumPages() {
			return nil, fmt.Errorf("%w: lsn %d: pages at slot %d leave a gap (%q has %d pages)",
				ErrCorrupt, r.LSN, r.First, r.Rel, dst.NumPages())
		}
		for i, pg := range r.Pages {
			if err := dst.InstallPage(int(r.First)+i, pg); err != nil {
				return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
			}
		}
		if err := dst.Truncate(int(r.First) + len(r.Pages)); err != nil {
			return nil, fmt.Errorf("wal: apply lsn %d: %w", r.LSN, err)
		}
		cat.Touch(r.Rel)
		return dst, nil

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

// payloadLen is the size of the record's payload as encode renders it,
// computed from the page images' wire sizes without encoding anything.
func payloadLen(r *Record) int64 {
	n := int64(1 + 8) // type, LSN
	switch r.Type {
	case RecPages:
		n += int64(2 + len(r.Rel) + 8 + 8 + 4)
		for _, pg := range r.Pages {
			n += 4 + int64(pg.WireSize())
		}
	case RecCheckpoint:
		n += int64(2 + len(r.Base) + 8)
	}
	return n
}

// encode renders the record as one frame ready to hit the segment; each
// page is marshalled straight into it.
func encode(r *Record) []byte {
	buf := make([]byte, frameHeaderLen, frameHeaderLen+payloadLen(r))
	buf = append(buf, byte(r.Type))
	buf = binary.LittleEndian.AppendUint64(buf, r.LSN)
	switch r.Type {
	case RecPages:
		buf = appendString(buf, r.Rel)
		buf = binary.LittleEndian.AppendUint64(buf, r.SchemaHash)
		buf = binary.LittleEndian.AppendUint64(buf, r.First)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Pages)))
		for _, pg := range r.Pages {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pg.WireSize()))
			buf = pg.AppendMarshal(buf)
		}
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
// that is a truncatable torn tail or hard corruption (acknowledged). The
// decoded pages adopt slices of the payload buffer, one per record.
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
	case recRetiredDelete:
		return nil, fmt.Errorf("%w: lsn %d", errRetiredDelete, rec.LSN)
	case RecPages:
		rec.Rel = d.str()
		rec.SchemaHash = d.u64()
		rec.First = d.u64()
		n := d.u32()
		// Each page costs at least its 4-byte length and a page header.
		if int64(n) > int64(len(p)-d.pos)/(4+relation.PageHeaderLen) {
			return nil, fmt.Errorf("%w: implausible page count %d", ErrCorrupt, n)
		}
		rec.Pages = make([]*relation.Page, 0, n)
		for i := uint32(0); i < n; i++ {
			b := d.bytes()
			if d.err != nil {
				break
			}
			pg, err := relation.UnmarshalPage(b)
			if err != nil {
				return nil, fmt.Errorf("%w: lsn %d: page %d: %v", errBadImage, rec.LSN, i, err)
			}
			rec.Pages = append(rec.Pages, pg)
		}
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

// take returns the next n bytes, or once a read has failed n zeros, at
// most a fixed-size field's.
func (d *decoder) take(n int) []byte {
	if d.err == nil && (n < 0 || d.pos+n > len(d.buf)) {
		d.err = fmt.Errorf("need %d bytes at offset %d of %d", n, d.pos, len(d.buf))
	}
	if d.err != nil {
		return make([]byte, min(max(n, 0), 8))
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decoder) u8() uint8     { return d.take(1)[0] }
func (d *decoder) u32() uint32   { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64   { return binary.LittleEndian.Uint64(d.take(8)) }
func (d *decoder) str() string   { return string(d.take(int(binary.LittleEndian.Uint16(d.take(2))))) }
func (d *decoder) bytes() []byte { return d.take(int(d.u32())) }
