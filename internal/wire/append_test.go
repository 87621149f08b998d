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

// splitBlob is a PageBlob over a fixed blob, its first hdr bytes
// standing for the page header.
type splitBlob struct {
	blob []byte
	hdr  int
}

func (b splitBlob) AppendHeader(dst []byte) []byte { return append(dst, b.blob[:b.hdr]...) }
func (b splitBlob) Data() []byte                   { return b.blob[b.hdr:] }

// TestAppendFrame: frames appended to a buffer that already holds
// bytes leave them alone and come out exactly as WriteVersion writes
// them; a frame that cannot be encoded hands the buffer back as it was.
func TestAppendFrame(t *testing.T) {
	buf := []byte("prefix")
	want := "prefix"
	for i, f := range goldenFrames() {
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

// TestResultHeadThenPayloadIsTheFrame: for every golden result frame,
// the head AppendResultHead appends behind a prefix, followed by the
// page's payload, is the prefix plus WriteVersion's bytes — wherever
// the page's header ends in its blob, and for the page-less frame,
// whose head is the whole frame. A frame that cannot be represented
// hands the buffer back as it was.
func TestResultHeadThenPayloadIsTheFrame(t *testing.T) {
	for i, f := range goldenFrames() {
		rp, ok := f.(*ResultPage)
		if !ok {
			continue
		}
		raw, _ := hex.DecodeString(goldenBytes[i])
		blob := rp.Page
		for hdr := 0; hdr <= len(blob); hdr++ {
			var src PageBlob
			if len(blob) > 0 {
				src = splitBlob{blob: blob, hdr: hdr}
			}
			rp.Page = nil
			head, err := AppendResultHead([]byte("prefix"), rp, src)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if src != nil {
				head = append(head, src.Data()...)
			}
			if string(head) != "prefix"+string(raw) {
				t.Errorf("frame %d, %d-byte page header: head and payload\n got %x\nwant %x", i, hdr, head[6:], raw)
			}
		}
	}

	held := append(make([]byte, 0, 256), "held"...)
	for name, bad := range map[string]struct {
		p   *ResultPage
		src PageBlob
	}{
		"oversized schema":     {&ResultPage{Schema: make([]SchemaAttr, maxStrLen+1)}, splitBlob{blob: []byte{1, 2}, hdr: 1}},
		"payload over the cap": {&ResultPage{Seq: 1}, splitBlob{blob: make([]byte, MaxFrameLen), hdr: 16}},
	} {
		got, err := AppendResultHead(held, bad.p, bad.src)
		if err == nil {
			t.Errorf("%s: encoded without error", name)
		}
		if string(got) != "held" || &got[0] != &held[0] {
			t.Errorf("%s: buffer came back as %q, want the caller's own %q", name, got, "held")
		}
	}
}
