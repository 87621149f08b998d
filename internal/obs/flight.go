package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// FlightRecorder is the always-on bounded record of recent queries the
// server answers: a live table of in-flight queries (keyed by trace
// ID, each carrying its current lifecycle stage) plus a fixed-size
// ring of completed, failed, and shed queries retained after the
// session that ran them is gone. It is the paper's master-controller
// vantage point made inspectable: the one place that sees every
// query's arrival, conflict wait, dispatch, and completion. The obs
// HTTP server surfaces it as /queries (in flight) and /queries/recent
// (the ring, newest first).
//
// All methods tolerate a nil receiver, so the service path needs no
// guards; memory is bounded by the ring capacity plus the number of
// queries actually in flight.
type FlightRecorder struct {
	mu       sync.Mutex
	capacity int
	inflight map[uint64]*QueryRecord
	ring     []QueryRecord
	next     int   // ring write cursor
	total    int64 // completions ever recorded
}

// Lifecycle stages of a query as reported by QueryRecord.Stage.
const (
	StageAdmitWait = "admit-wait"
	StageSchedule  = "schedule"
	StageExecute   = "execute"
	StageStream    = "stream"
)

// Outcomes recorded by Finish.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
	OutcomeShed  = "shed"
	// OutcomeReplayed marks a write re-applied from the write-ahead log
	// during crash recovery: it was acknowledged in a previous process
	// life and survived into this one.
	OutcomeReplayed = "replayed"
)

// QueryRecord is one query's flight-recorder entry.
type QueryRecord struct {
	// TraceID is the query's end-to-end trace identifier (the frame
	// field of wire v2); it keys the in-flight table.
	TraceID uint64 `json:"trace_id"`
	// Session and QueryID locate the query in its session; Lane is the
	// admission lane ("high", "normal", "low"); Engine names the
	// executing engine.
	Session uint64 `json:"session"`
	QueryID uint32 `json:"query_id"`
	Lane    string `json:"lane"`
	Engine  string `json:"engine"`
	// Text is the query text, truncated to maxRecordedText bytes;
	// TextHash is the FNV-1a hash of the full text, stable across
	// truncation so repeated queries group.
	Text     string `json:"text"`
	TextHash uint64 `json:"text_hash"`
	// Start is the wall-clock arrival time.
	Start time.Time `json:"start"`
	// Stage is the current lifecycle stage while in flight
	// (StageAdmitWait, StageSchedule, StageExecute, StageStream), then
	// the outcome once finished.
	Stage string `json:"stage"`
	// Per-stage timings, filled in as the query advances.
	AdmitWait time.Duration `json:"admit_wait_ns"`
	Sched     time.Duration `json:"sched_ns"`
	Exec      time.Duration `json:"exec_ns"`
	Stream    time.Duration `json:"stream_ns"`
	// Total is the end-to-end server-side duration, set by Finish.
	Total time.Duration `json:"total_ns"`
	// Outcome is empty in flight, then OutcomeOK, OutcomeShed, or
	// "error:<code>" with the wire error code.
	Outcome string `json:"outcome,omitempty"`
	// Tuples and Pages size the result (OutcomeOK only).
	Tuples int64 `json:"tuples"`
	Pages  int64 `json:"pages"`
	// Deferred reports a read/write-conflict admission delay.
	Deferred bool `json:"deferred,omitempty"`
	// The engine's account of the query (OutcomeOK only; zero for a
	// durable write): physical packets dispatched to its instruction
	// processors, outer tuples probed against hash tables, and inner
	// hash tables built.
	Dispatches int64 `json:"dispatches"`
	HashProbes int64 `json:"hash_probes"`
	HashBuilds int64 `json:"hash_builds"`
}

// maxRecordedText bounds the query text kept per record.
const maxRecordedText = 200

// HashText returns the FNV-1a 64-bit hash of a query text.
func HashText(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// NewFlightRecorder returns a recorder retaining the last capacity
// completed queries (64 when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 64
	}
	return &FlightRecorder{
		capacity: capacity,
		inflight: map[uint64]*QueryRecord{},
	}
}

// Capacity returns the ring capacity.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return f.capacity
}

// Start registers a query as in flight. The record's Stage defaults to
// StageAdmitWait and its Text is truncated and hashed here.
func (f *FlightRecorder) Start(rec QueryRecord) {
	if f == nil {
		return
	}
	rec.TextHash = HashText(rec.Text)
	if len(rec.Text) > maxRecordedText {
		rec.Text = rec.Text[:maxRecordedText] + "..."
	}
	if rec.Stage == "" {
		rec.Stage = StageAdmitWait
	}
	// Copy into fresh heap storage here rather than letting the rec
	// parameter itself escape: taking &rec would heap-allocate the
	// argument at function entry, before the nil check, charging one
	// allocation per query to servers running with no recorder at all.
	r := new(QueryRecord)
	*r = rec
	f.mu.Lock()
	f.inflight[r.TraceID] = r
	f.mu.Unlock()
}

// SetStage advances an in-flight query's lifecycle stage. Unknown
// trace IDs are ignored (the query may have been shed before Start).
func (f *FlightRecorder) SetStage(traceID uint64, stage string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if r, ok := f.inflight[traceID]; ok {
		r.Stage = stage
	}
	f.mu.Unlock()
}

// Finish retires an in-flight query into the completed ring with the
// given outcome, applying fn (if non-nil) to fill final timings and
// result sizes first. Finishing an unknown trace ID is a no-op.
func (f *FlightRecorder) Finish(traceID uint64, outcome string, fn func(*QueryRecord)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.inflight[traceID]
	if !ok {
		return
	}
	delete(f.inflight, traceID)
	if fn != nil {
		fn(r)
	}
	r.Outcome = outcome
	r.Stage = outcome
	if r.Total == 0 && !r.Start.IsZero() {
		r.Total = r.AdmitWait + r.Sched + r.Exec + r.Stream
	}
	if len(f.ring) < f.capacity {
		f.ring = append(f.ring, *r)
	} else {
		f.ring[f.next] = *r
	}
	f.next = (f.next + 1) % f.capacity
	f.total++
}

// InFlight returns the in-flight queries ordered by arrival.
func (f *FlightRecorder) InFlight() []QueryRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]QueryRecord, 0, len(f.inflight))
	for _, r := range f.inflight {
		out = append(out, *r)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Recent returns the retained completed queries, newest first.
func (f *FlightRecorder) Recent() []QueryRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]QueryRecord, 0, len(f.ring))
	for i := 1; i <= len(f.ring); i++ {
		out = append(out, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	return out
}

// TotalCompleted returns the number of queries ever retired into the
// ring (including ones since overwritten).
func (f *FlightRecorder) TotalCompleted() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// WriteInFlight writes the /queries JSON document: the in-flight set
// with current stages.
func (f *FlightRecorder) WriteInFlight(w io.Writer) error {
	records := f.InFlight()
	if records == nil {
		records = []QueryRecord{}
	}
	return json.NewEncoder(w).Encode(struct {
		InFlight []QueryRecord `json:"inflight"`
	}{records})
}

// WriteRecent writes the /queries/recent JSON document: the completed
// ring (newest first), its capacity, and the all-time completion
// count.
func (f *FlightRecorder) WriteRecent(w io.Writer) error {
	records := f.Recent()
	if records == nil {
		records = []QueryRecord{}
	}
	return json.NewEncoder(w).Encode(struct {
		Recent   []QueryRecord `json:"recent"`
		Capacity int           `json:"capacity"`
		Total    int64         `json:"total_completed"`
	}{records, f.Capacity(), f.TotalCompleted()})
}
