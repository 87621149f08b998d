package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dfdbm/internal/relation"
)

// forgedHeader is a frame header that claims the largest record the log
// allows, followed by a few bytes: a garbage tail as recovery finds it.
func forgedHeader() []byte {
	b := binary.LittleEndian.AppendUint32(nil, maxRecordLen)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	return append(b, "short"...)
}

// frame wraps payload in a frame with a valid CRC.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// A header's length is a claim until the payload's CRC checks: on a short
// segment it is refused as corruption before the claimed bytes are bought.
func TestReadRecordForgedLengthAllocatesNothing(t *testing.T) {
	seg := forgedHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readRecord(bytes.NewReader(seg), int64(len(seg)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged header: %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("refusing a forged header allocated %d bytes, want under 1 MiB", d)
	}
}

// Every page of an append record costs at least its 4-byte length and a
// page header, so a CRC-valid record claiming more pages than its bytes
// can hold is refused before a slice of that many is made.
func TestDecodePayloadBoundsPageCount(t *testing.T) {
	empty := relation.MustNewPage(64, 8).Marshal() // a header and no tuples
	payload := func(pages uint32) []byte {
		p := encode(&Record{Type: RecPages, LSN: 7, Rel: "r"})[frameHeaderLen:]
		p = p[:len(p)-4] // the encoded page count, zero
		p = binary.LittleEndian.AppendUint32(p, pages)
		for i := 0; i < 100; i++ { // 100 empty pages
			p = binary.LittleEndian.AppendUint32(p, uint32(len(empty)))
			p = append(p, empty...)
		}
		return p
	}
	rec, err := decodePayload(payload(100))
	if err != nil || len(rec.Pages) != 100 {
		t.Fatalf("100 empty pages in 2,000 bytes: %v", err)
	}
	if _, err := decodePayload(payload(101)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "implausible page count") {
		t.Fatalf("101 pages in 2,000 bytes: %v, want an implausible page count", err)
	}
}

// TestBadPageImageIsNotATornTail: a whole, CRC-valid append frame whose
// page image does not parse was acknowledged once, so recovery refuses
// the log as ErrCorrupt — even at the tail of the last segment — instead
// of cutting it away as a torn write, and Inspect reports it.
func TestBadPageImageIsNotATornTail(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{})
	dst, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AppendRecord(dst, buildSrc(t, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	rec.LSN = l.LastLSN() + 1
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fr := encode(rec)
	payload := fr[frameHeaderLen:]
	// The first image starts after type, LSN, name, schema hash, first
	// slot, page count and the image's length; break its page magic.
	img := 1 + 8 + 2 + len(rec.Rel) + 8 + 8 + 4 + 4
	payload[img] ^= 0xFF
	bad := frame(payload)
	if _, err := decodePayload(payload); !errors.Is(err, errBadImage) {
		t.Fatalf("decode of a broken page image: %v, want the bad-image error", err)
	}

	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	before, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, append(bytes.Clone(before), bad...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, Options{}); !errors.Is(err, errBadImage) {
		t.Fatalf("Open over a bad page image in the tail: %v, want ErrCorrupt naming the image", err)
	}
	after, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, append(before, bad...)) {
		t.Fatalf("the refused Open changed the segment: %d bytes, was %d", len(after), len(before)+len(bad))
	}
	rp, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seg := rp.Segments[len(rp.Segments)-1]; rp.Clean() || !strings.Contains(seg.Err, "page image does not parse") {
		t.Fatalf("Inspect over a bad page image: clean=%v, segment error %q", rp.Clean(), seg.Err)
	}
}

// TestAppendRefusesUnreadableRecord: a record whose payload would pass
// maxRecordLen is one recovery would refuse as an implausible length, so
// Append refuses it with ErrTooLarge before it takes an LSN or encodes a
// byte, and the log goes on. The record points 16,385 times at one
// 64 KiB page, so the test allocates nothing large.
func TestAppendRefusesUnreadableRecord(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{})
	pg := relation.MustNewPage(64<<10, 8)
	for !pg.Full() {
		if err := pg.AppendRaw([]byte("tuple-01")); err != nil {
			t.Fatal(err)
		}
	}
	huge := &Record{Type: RecPages, Rel: "ev", Pages: make([]*relation.Page, maxRecordLen/(64<<10)+1)}
	for i := range huge.Pages {
		huge.Pages[i] = pg
	}
	last := l.LastLSN()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := l.Append(huge)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Append of a %d-byte payload: %v, want ErrTooLarge", payloadLen(huge), err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("refusing the record allocated %d bytes, want under 1 MiB", d)
	}
	if huge.LSN != 0 || l.LastLSN() != last {
		t.Fatalf("the refused record took LSN %d; the log moved %d -> %d", huge.LSN, last, l.LastLSN())
	}
	dst, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := AppendRecord(dst, buildSrc(t, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append(rec); err != nil || lsn != last+1 {
		t.Fatalf("the next append: LSN %d, %v, want %d", lsn, err, last+1)
	}
	if got, want := payloadLen(rec), int64(len(encode(rec))-frameHeaderLen); got != want {
		t.Fatalf("payloadLen = %d, the encoded payload is %d bytes", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzWALRecord feeds arbitrary bytes to the record decoder: it never
// panics, every failure but a clean end wraps ErrCorrupt, and a record it
// accepts encodes back to the bytes it came from, as long as payloadLen
// says.
func FuzzWALRecord(f *testing.F) {
	pg := relation.MustNewPage(64, 8)
	if err := pg.AppendRaw([]byte("tuple-01")); err != nil {
		f.Fatal(err)
	}
	for _, r := range []*Record{
		{Type: RecPages, LSN: 1, Rel: "r1", SchemaHash: 42, First: 3, Pages: []*relation.Page{pg, pg}},
		{Type: RecPages, LSN: 2, Rel: "r1", SchemaHash: 42, First: 1, Pages: []*relation.Page{pg}}, // a delete's survivors
		{Type: RecPages, LSN: 3, Rel: "r1", SchemaHash: 42},                                        // a delete of every tuple
		{Type: RecCheckpoint, LSN: 4, Base: "heap", CoverLSN: 2},
		{Type: recRetiredAppend, LSN: 5},
		{Type: recRetiredDelete, LSN: 6},
	} {
		f.Add(encode(r))
	}
	f.Add(forgedHeader())
	f.Add(frame([]byte{byte(RecPages), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := readRecord(bytes.NewReader(data), int64(len(data)))
		switch {
		case err == io.EOF:
			if len(data) != 0 {
				t.Fatalf("io.EOF on %d bytes", len(data))
			}
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
		case n > int64(len(data)) || !bytes.Equal(encode(rec), data[:n]):
			t.Fatalf("accepted %d of %d bytes as %s, which does not encode back to them", n, len(data), rec.Summary())
		case payloadLen(rec) != n-frameHeaderLen:
			t.Fatalf("accepted a %d-byte payload as %s, whose payloadLen is %d", n-frameHeaderLen, rec.Summary(), payloadLen(rec))
		}
		if _, err := decodePayload(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload error does not wrap ErrCorrupt: %v", err)
		}
	})
}
