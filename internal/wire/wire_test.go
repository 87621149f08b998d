package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRoundTrip encodes every frame type and decodes it back,
// asserting field-for-field identity.
func TestRoundTrip(t *testing.T) {
	frames := []Frame{
		&Hello{Min: 1, Max: 3, Engine: "machine", Name: "client-7"},
		&Hello{Min: 1, Max: 1},
		&Query{ID: 42, Priority: 2, Text: `restrict(r1, val < 100)`},
		&ResultPage{QueryID: 42, Seq: 0, Name: "t3", PageSize: 2048,
			Schema: []SchemaAttr{{Name: "id", Type: 1}, {Name: "pad", Type: 4, Width: 76}},
			Page:   []byte{1, 2, 3, 4}},
		&ResultPage{QueryID: 42, Seq: 7, Last: true},
		&ResultPage{QueryID: 9, Seq: 0, Last: true, Name: "empty", PageSize: 512,
			Schema: []SchemaAttr{{Name: "k", Type: 2}}},
		&Error{QueryID: SessionQueryID, Code: CodeVersion, Msg: "no overlap"},
		&Error{QueryID: 3, Code: CodeOverloaded, Msg: "queue full"},
		&Stats{QueryID: 42, Engine: "core", Tuples: 1234, Pages: 9, ResultBytes: 99999,
			Queued: 250 * time.Microsecond, Exec: 3 * time.Millisecond, Deferred: true},
		&Hello{Min: 2, Max: 2, Engine: "core", Name: "srv", SessionID: 77},
		&Query{ID: 7, Priority: 1, Text: "r1", TraceID: 0xDEADBEEF},
		&Stats{QueryID: 7, Engine: "core", Tuples: 1, TraceID: 0xDEADBEEF,
			AdmitWait: time.Millisecond, Sched: 10 * time.Microsecond,
			Queued: time.Millisecond + 10*time.Microsecond,
			Exec:   2 * time.Millisecond, Stream: 400 * time.Microsecond},
	}
	for _, f := range frames {
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatalf("Write(%v): %v", f.Type(), err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(%v): %v", f.Type(), err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", f.Type(), got, f)
		}
		if buf.Len() != 0 {
			t.Errorf("%v round trip left %d bytes unread", f.Type(), buf.Len())
		}
	}
}

// TestStreamOfFrames writes several frames back to back and reads them
// in order off one reader, as a session does.
func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	in := []Frame{
		&Hello{Min: 1, Max: 1, Engine: "core"},
		&Query{ID: 1, Text: "r1"},
		&Query{ID: 2, Text: "r2"},
		&Stats{QueryID: 1, Engine: "core"},
	}
	for _, f := range in {
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range in {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Errorf("end of stream: got %v, want io.EOF", err)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		cmin, cmax, smin, smax uint16
		want                   uint16
		ok                     bool
	}{
		{1, 1, 1, 1, 1, true},
		{1, 3, 1, 2, 2, true},
		{2, 5, 1, 9, 5, true},
		{3, 4, 1, 2, 0, false},
		{1, 1, 2, 3, 0, false},
	}
	for _, c := range cases {
		got, err := Negotiate(c.cmin, c.cmax, c.smin, c.smax)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Negotiate(%d-%d, %d-%d) = %d, %v; want %d", c.cmin, c.cmax, c.smin, c.smax, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Negotiate(%d-%d, %d-%d) succeeded, want error", c.cmin, c.cmax, c.smin, c.smax)
		}
	}
}

// TestCrossVersion pins what is left of versioning in the codec: one
// layout, Version's. WriteVersion and ReadVersion refuse a version this
// build does not speak — v1 included — instead of ignoring it, and at
// Version they are Write and Read.
func TestCrossVersion(t *testing.T) {
	q := &Query{ID: 3, Text: "r1", TraceID: 55}
	var framed bytes.Buffer
	if err := Write(&framed, q); err != nil {
		t.Fatal(err)
	}
	for _, ver := range []uint16{0, 1, Version + 1} {
		if err := WriteVersion(io.Discard, q, ver); err == nil {
			t.Errorf("WriteVersion at v%d succeeded", ver)
		}
		if _, err := ReadVersion(bytes.NewReader(framed.Bytes()), ver); err == nil {
			t.Errorf("ReadVersion at v%d succeeded", ver)
		}
	}
	var buf bytes.Buffer
	if err := WriteVersion(&buf, q, Version); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), framed.Bytes()) {
		t.Errorf("WriteVersion at v%d differs from Write", Version)
	}
	f, err := ReadVersion(&buf, Version)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, q) {
		t.Errorf("ReadVersion at v%d: got %+v, want %+v", Version, f, q)
	}
}

// TestReadRejectsMalformed covers the defensive paths: unknown type,
// oversized announcement, truncated payload, trailing bytes.
func TestReadRejectsMalformed(t *testing.T) {
	// Unknown frame type.
	if _, err := Read(bytes.NewReader([]byte{99, 0, 0, 0, 0})); err == nil {
		t.Error("unknown frame type accepted")
	}
	// Oversized length announcement.
	hdr := []byte{byte(TypeQuery), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[1:], MaxFrameLen+1)
	if _, err := Read(bytes.NewReader(hdr)); err == nil {
		t.Error("oversized frame accepted")
	}
	// Torn payload.
	var buf bytes.Buffer
	if err := Write(&buf, &Query{ID: 1, Text: "r1"}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-2]
	if _, err := Read(bytes.NewReader(torn)); err == nil {
		t.Error("torn frame accepted")
	}
	// Trailing garbage inside the declared payload.
	var buf2 bytes.Buffer
	if err := Write(&buf2, &Error{QueryID: 1, Code: CodeExec, Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf2.Bytes()...)
	full = append(full, 0xAB)
	binary.LittleEndian.PutUint32(full[1:], uint32(len(full)-5))
	if _, err := Read(bytes.NewReader(full)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes: got %v, want trailing-bytes error", err)
	}
	// String longer than the remaining payload.
	bad := []byte{byte(TypeError), 0, 0, 0, 0 /* payload: */, 0, 0, 0, 0 /* qid */, 0xFF, 0xFF /* strlen 65535 */}
	binary.LittleEndian.PutUint32(bad[1:], uint32(len(bad)-5))
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("truncated string accepted")
	}
}

// TestWriteRejectsOversized: a frame whose payload exceeds MaxFrameLen
// must be refused at write time, not sent.
func TestWriteRejectsOversized(t *testing.T) {
	p := &ResultPage{QueryID: 1, Seq: 1, Page: make([]byte, MaxFrameLen)}
	if err := Write(io.Discard, p); err == nil {
		t.Error("oversized frame written")
	}
}

// TestWriteRejectsOversizedString: a string field longer than its u16
// length prefix can express must be refused at write time — silently
// truncating the prefix would produce a frame the peer cannot decode
// (trailing bytes) and tear down the whole session.
func TestWriteRejectsOversizedString(t *testing.T) {
	big := strings.Repeat("x", 1<<16)
	if err := Write(io.Discard, &Query{ID: 1, Text: big}); err == nil {
		t.Error("query with 64KiB+ text written")
	}
	if err := Write(io.Discard, &Error{QueryID: 1, Code: CodeExec, Msg: big}); err == nil {
		t.Error("error frame with 64KiB+ message written")
	}
	// At the boundary the frame still round-trips.
	max := strings.Repeat("y", 1<<16-1)
	var buf bytes.Buffer
	if err := Write(&buf, &Query{ID: 2, Text: max}); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q := f.(*Query); q.Text != max {
		t.Error("max-length string did not round-trip")
	}
}
