package wire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReadFrame drives the frame decoder with arbitrary byte streams.
// The decoder's contract under fuzzing: it may reject input with an
// error, but it must never panic, never allocate unboundedly off a
// length announcement, and any frame it accepts must re-encode and
// decode back to the same value (the accepted set is round-trip
// stable).
func FuzzReadFrame(f *testing.F) {
	// Seed the corpus with every frame type, each with its optional
	// fields set and unset, mirroring the TestRoundTrip corpus.
	seeds := []Frame{
		&Hello{Min: 1, Max: 3, Engine: "machine", Name: "client-7"},
		&Hello{Min: 1, Max: 1},
		&Hello{Min: 2, Max: 2, Engine: "core", SessionID: 77},
		&Query{ID: 42, Priority: 2, Text: `restrict(r1, val < 100)`, TraceID: 9},
		&Query{ID: 7, Priority: 1, Text: "r1"},
		&ResultPage{QueryID: 42, Seq: 0, Name: "t3", PageSize: 2048,
			Schema: []SchemaAttr{{Name: "id", Type: 1}, {Name: "pad", Type: 4, Width: 76}},
			Page:   []byte{1, 2, 3, 4}},
		&ResultPage{QueryID: 42, Seq: 7, Last: true},
		&ResultPage{QueryID: 42, Seq: 3, Page: []byte{9, 8, 7}},
		&ResultPage{QueryID: 9, Seq: 0, Last: true, Name: "empty", PageSize: 512,
			Schema: []SchemaAttr{{Name: "k", Type: 2}}},
		&Error{QueryID: SessionQueryID, Code: CodeVersion, Msg: "no overlap"},
		&Error{QueryID: 3, Code: CodeOverloaded, Msg: "queue full"},
		&Stats{QueryID: 42, Engine: "core", Tuples: 1234, Pages: 9,
			ResultBytes: 99999, Queued: 250 * time.Microsecond,
			Exec: 3 * time.Millisecond, Deferred: true, TraceID: 5,
			AdmitWait: time.Millisecond, Sched: time.Microsecond,
			Stream: 40 * time.Microsecond},
		&Stats{QueryID: 1, Engine: "machine"},
		&Stats{QueryID: 7, Engine: "core", Tuples: 1, TraceID: 0xDEADBEEF},
	}
	for _, fr := range seeds {
		var buf bytes.Buffer
		if err := Write(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Defensive-path seeds from TestReadRejectsMalformed.
	f.Add([]byte{99, 0, 0, 0, 0})
	f.Add([]byte{byte(TypeQuery), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{byte(TypeError), 6, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted frames must round-trip: re-encode and decode back to
		// an identical frame.
		var buf bytes.Buffer
		if err := Write(&buf, fr); err != nil {
			t.Fatalf("accepted frame %v failed to re-encode: %v", fr.Type(), err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded %v frame failed to decode: %v", fr.Type(), err)
		}
		var b1, b2 bytes.Buffer
		if err := Write(&b1, fr); err != nil {
			t.Fatal(err)
		}
		if err := Write(&b2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("%v frame not round-trip stable:\n first %x\nsecond %x",
				fr.Type(), b1.Bytes(), b2.Bytes())
		}
	})
}
