package wire

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// goldenFrames is one frame of every type (three result-page shapes:
// first page with schema, later page, page-less terminator), with every
// v2 field set.
func goldenFrames() []Frame {
	return []Frame{
		&Hello{Min: 1, Max: 2, Engine: "machine", Name: "client-7"},
		&Hello{Min: 2, Max: 2, Engine: "core", Name: "srv", SessionID: 77},
		&Query{ID: 42, Priority: 2, Text: `restrict(r1, val < 100)`, TraceID: 0xDEADBEEF},
		&ResultPage{QueryID: 42, Seq: 0, Name: "t3", PageSize: 2048,
			Schema: []SchemaAttr{{Name: "id", Type: 1}, {Name: "pad", Type: 4, Width: 76}},
			Page:   []byte{1, 2, 3, 4}},
		&ResultPage{QueryID: 42, Seq: 7, Last: true, Page: []byte{9, 8, 7}},
		&ResultPage{QueryID: 9, Seq: 0, Last: true, Name: "empty", PageSize: 512,
			Schema: []SchemaAttr{{Name: "k", Type: 2}}},
		&Error{QueryID: SessionQueryID, Code: CodeVersion, Msg: "no overlap"},
		&Stats{QueryID: 7, Engine: "core", Tuples: 1234, Pages: 9, ResultBytes: 99999, Deferred: true,
			TraceID: 0xDEADBEEF, AdmitWait: time.Millisecond, Sched: 10 * time.Microsecond,
			Queued: time.Millisecond + 10*time.Microsecond,
			Exec:   2 * time.Millisecond, Stream: 400 * time.Microsecond},
	}
}

// goldenBytes are goldenFrames as the encoder before AppendFrame wrote
// them (payload built apart, then copied behind a header). The wire
// format did not change when the encoder did.
var goldenBytes = []string{
	"01170000000100020007006d616368696e650800636c69656e742d37",
	"0117000000020002000400636f726503007372764d00000000000000",
	"02260000002a00000002170072657374726963742872312c2076616c203c2031303029efbeadde00000000",
	"032e0000002a0000000000000002020074330008000002000200696401000000000300706164044c0000000400000001020304",
	"03100000002a000000070000000103000000090807",
	"03220000000900000000000000030500656d70747900020000010001006b020000000000000000",
	"0419000000ffffffff070076657273696f6e0a006e6f206f7665726c6170",
	"0553000000070000000400636f7265d20400000000000009000000000000009f8601000000000050690f000000000080841e000000000001efbeadde0000000040420f00000000001027000000000000801a060000000000",
}

func TestWriteVersionBytesUnchanged(t *testing.T) {
	for i, f := range goldenFrames() {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, f, Version); err != nil {
			t.Fatalf("frame %d (%s): %v", i, f.Type(), err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != goldenBytes[i] {
			t.Errorf("frame %d (%s):\n got %s\nwant %s", i, f.Type(), got, goldenBytes[i])
		}
	}
}

// blobSource is a PageSource over a fixed blob; lie makes it announce
// one byte more than it appends.
type blobSource struct {
	blob []byte
	lie  bool
}

func (b blobSource) WireSize() int {
	if b.lie {
		return len(b.blob) + 1
	}
	return len(b.blob)
}
func (b blobSource) AppendMarshal(dst []byte) []byte { return append(dst, b.blob...) }

// TestAppendFrame: frames appended to a buffer that already holds
// bytes leave them alone and come out exactly as WriteVersion writes
// them, whether the page comes as a blob or from a PageSource; a frame
// that cannot be encoded hands the buffer back as it was.
func TestAppendFrame(t *testing.T) {
	buf := []byte("prefix")
	want := "prefix"
	for i, f := range goldenFrames() {
		if rp, ok := f.(*ResultPage); ok && len(rp.Page) > 0 {
			rp.Source, rp.Page = blobSource{blob: rp.Page}, nil
		}
		var err error
		if buf, err = AppendFrame(buf, f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		raw, _ := hex.DecodeString(goldenBytes[i])
		want += string(raw)
	}
	if string(buf) != want {
		t.Error("appended frames differ from the prefix plus WriteVersion's bytes")
	}

	held := append(make([]byte, 0, 256), "held"...)
	for name, bad := range map[string]Frame{
		"oversized string":     &Error{Code: CodeExec, Msg: strings.Repeat("x", maxStrLen+1)},
		"oversized schema":     &ResultPage{Schema: make([]SchemaAttr, maxStrLen+1)},
		"lying page source":    &ResultPage{Seq: 1, Source: blobSource{blob: []byte{1, 2, 3}, lie: true}},
		"payload over the cap": &ResultPage{Seq: 1, Page: make([]byte, MaxFrameLen)},
	} {
		got, err := AppendFrame(held, bad)
		if err == nil {
			t.Errorf("%s: encoded without error", name)
		}
		if string(got) != "held" || &got[0] != &held[0] {
			t.Errorf("%s: buffer came back as %q, want the caller's own %q", name, got, "held")
		}
	}
}

// TestAppendRoomIsEnough: a result frame appended to a buffer with
// exactly AppendRoom bytes to spare is encoded in that buffer — the
// promise a caller filling fixed-size buffers relies on — for every
// shape of result frame, blob or page source.
func TestAppendRoomIsEnough(t *testing.T) {
	for i, f := range goldenFrames() {
		rp, ok := f.(*ResultPage)
		if !ok {
			continue
		}
		for _, source := range []bool{false, true} {
			if source && len(rp.Page) > 0 {
				rp.Source, rp.Page = blobSource{blob: rp.Page}, nil
			}
			buf := append(make([]byte, 0, 6+rp.AppendRoom()), "prefix"...)
			got, err := AppendFrame(buf, rp)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if &got[0] != &buf[0] {
				t.Errorf("frame %d (source %v): %d bytes of room, yet the %d-byte frame moved the buffer",
					i, source, rp.AppendRoom(), len(got)-len(buf))
			}
		}
	}
}
