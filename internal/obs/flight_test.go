package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderLifecycle(t *testing.T) {
	f := NewFlightRecorder(4)
	start := time.Now()
	f.Start(QueryRecord{TraceID: 1, Session: 3, QueryID: 7, Lane: "normal", Text: "join a b on x", Start: start})

	got := f.InFlight()
	if len(got) != 1 {
		t.Fatalf("in flight = %d records, want 1", len(got))
	}
	if got[0].Stage != StageAdmitWait {
		t.Errorf("fresh record stage = %q, want %q", got[0].Stage, StageAdmitWait)
	}
	if got[0].TextHash != HashText("join a b on x") {
		t.Errorf("text hash not set on Start")
	}

	f.SetStage(1, StageExecute)
	if got := f.InFlight(); got[0].Stage != StageExecute {
		t.Errorf("stage after SetStage = %q, want %q", got[0].Stage, StageExecute)
	}

	f.Finish(1, OutcomeOK, func(r *QueryRecord) {
		r.Exec = time.Millisecond
		r.Tuples = 42
	})
	if len(f.InFlight()) != 0 {
		t.Fatal("record still in flight after Finish")
	}
	rec := f.Recent()
	if len(rec) != 1 || rec[0].Outcome != OutcomeOK || rec[0].Tuples != 42 {
		t.Fatalf("recent = %+v, want one ok record with 42 tuples", rec)
	}
	if rec[0].Total == 0 {
		t.Error("Finish did not derive a total duration")
	}
}

func TestFlightRecorderRingRetention(t *testing.T) {
	const capacity = 8
	f := NewFlightRecorder(capacity)
	for i := 1; i <= 20; i++ {
		f.Start(QueryRecord{TraceID: uint64(i), Text: fmt.Sprintf("q%d", i), Start: time.Now()})
		f.Finish(uint64(i), OutcomeOK, nil)
	}
	rec := f.Recent()
	if len(rec) != capacity {
		t.Fatalf("ring holds %d records, want the capacity %d", len(rec), capacity)
	}
	// Newest first: 20, 19, ... 13.
	for i, r := range rec {
		if want := uint64(20 - i); r.TraceID != want {
			t.Fatalf("recent[%d].TraceID = %d, want %d (newest first)", i, r.TraceID, want)
		}
	}
	if f.TotalCompleted() != 20 {
		t.Errorf("total completed = %d, want 20", f.TotalCompleted())
	}
}

// TestFlightRecorderWraparoundConcurrent hammers the completed ring
// with concurrent writers well past its capacity while readers scrape
// it, then checks the invariants the live /queries/recent endpoint
// depends on: the ring never exceeds capacity, the all-time counter is
// exact, every retained record is one of the newest `capacity`
// completions per writer's ordering, and Recent stays newest-first
// consistent (no torn or zero records surfaced mid-overwrite).
func TestFlightRecorderWraparoundConcurrent(t *testing.T) {
	const (
		capacity = 8
		writers  = 4
		perW     = 250
	)
	f := NewFlightRecorder(capacity)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perW; i++ {
				id := uint64(w*perW + i + 1)
				f.Start(QueryRecord{TraceID: id, Text: "wrap", Start: time.Now()})
				f.SetStage(id, StageExecute)
				f.Finish(id, OutcomeOK, func(r *QueryRecord) { r.Tuples = int64(id) })
			}
		}(w)
	}
	// Concurrent readers: every observed snapshot must already satisfy
	// the ring invariants, not just the final state.
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := f.Recent()
			if len(rec) > capacity {
				readerDone <- fmt.Errorf("mid-run ring holds %d > capacity %d", len(rec), capacity)
				return
			}
			for _, r := range rec {
				if r.TraceID == 0 || r.Outcome != OutcomeOK {
					readerDone <- fmt.Errorf("torn record surfaced: %+v", r)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		<-done
	}
	close(stop)
	if err, ok := <-readerDone; ok && err != nil {
		t.Fatal(err)
	}

	if got := f.TotalCompleted(); got != writers*perW {
		t.Fatalf("total completed = %d, want %d", got, writers*perW)
	}
	rec := f.Recent()
	if len(rec) != capacity {
		t.Fatalf("ring holds %d records, want capacity %d", len(rec), capacity)
	}
	seen := map[uint64]bool{}
	for _, r := range rec {
		if seen[r.TraceID] {
			t.Fatalf("trace %d retained twice", r.TraceID)
		}
		seen[r.TraceID] = true
		if r.Tuples != int64(r.TraceID) {
			t.Fatalf("record %d carries tuples %d — Finish mutation torn", r.TraceID, r.Tuples)
		}
		// Each writer finishes its IDs in ascending order, so any
		// retained ID must be within the last `capacity` completions of
		// its writer: id > perW - capacity within the writer's range.
		if (r.TraceID-1)%perW < perW-capacity {
			t.Fatalf("stale record %d survived wraparound", r.TraceID)
		}
	}
	if len(f.InFlight()) != 0 {
		t.Fatal("records left in flight")
	}
}

func TestFlightRecorderTextTruncation(t *testing.T) {
	f := NewFlightRecorder(2)
	long := strings.Repeat("x", 5000)
	f.Start(QueryRecord{TraceID: 1, Text: long})
	got := f.InFlight()[0]
	if len(got.Text) > maxRecordedText+3 {
		t.Errorf("recorded text is %d bytes, want ≤ %d", len(got.Text), maxRecordedText+3)
	}
	if got.TextHash != HashText(long) {
		t.Error("hash must cover the full text, not the truncation")
	}
}

func TestFlightRecorderUnknownIDsAreNoOps(t *testing.T) {
	f := NewFlightRecorder(2)
	f.SetStage(99, StageStream)
	f.Finish(99, OutcomeOK, nil)
	if len(f.Recent()) != 0 || f.TotalCompleted() != 0 {
		t.Error("finishing an unknown trace ID recorded something")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Start(QueryRecord{TraceID: 1})
	f.SetStage(1, StageExecute)
	f.Finish(1, OutcomeOK, nil)
	if f.InFlight() != nil || f.Recent() != nil || f.Capacity() != 0 || f.TotalCompleted() != 0 {
		t.Error("nil flight recorder is not inert")
	}
}

// TestFlightRecorderDisabledAllocs: the disabled (nil-recorder) service
// path must not allocate — it rides the server's per-query hot path.
func TestFlightRecorderDisabledAllocs(t *testing.T) {
	var f *FlightRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		f.SetStage(1, StageExecute)
		f.Finish(1, OutcomeOK, nil)
	})
	if allocs != 0 {
		t.Errorf("nil flight recorder allocates %v per query, want 0", allocs)
	}
}

func TestFlightRecorderJSONDocuments(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Start(QueryRecord{TraceID: 5, Text: "scan parts", Start: time.Now()})
	f.Start(QueryRecord{TraceID: 6, Text: "scan suppliers", Start: time.Now()})
	f.Finish(6, OutcomeShed, nil)

	var in struct {
		InFlight []QueryRecord `json:"inflight"`
	}
	var sb strings.Builder
	if err := f.WriteInFlight(&sb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(sb.String()), &in); err != nil {
		t.Fatalf("bad /queries document: %v", err)
	}
	if len(in.InFlight) != 1 || in.InFlight[0].TraceID != 5 {
		t.Fatalf("inflight doc = %+v, want trace 5 only", in.InFlight)
	}

	var rec struct {
		Recent   []QueryRecord `json:"recent"`
		Capacity int           `json:"capacity"`
		Total    int64         `json:"total_completed"`
	}
	sb.Reset()
	if err := f.WriteRecent(&sb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatalf("bad /queries/recent document: %v", err)
	}
	if len(rec.Recent) != 1 || rec.Recent[0].Outcome != OutcomeShed || rec.Capacity != 4 || rec.Total != 1 {
		t.Fatalf("recent doc = %+v, want one shed record, capacity 4, total 1", rec)
	}
}
