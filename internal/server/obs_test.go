package server

// End-to-end observability tests for the service path: the linked span
// tree a served query leaves behind, the wire-propagated trace ID, the
// flight recorder's live and retained views under load, the per-stage
// latency histograms, old-client compatibility, and the slow-query log.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/wal"
	"dfdbm/internal/wire"
	"dfdbm/internal/workload"
)

// TestQueryTraceSpanTree: one served query must leave one connected
// causal tree — session → query → lifecycle stages → engine subtree —
// reconstructable from the JSONL trace stream, with the server's stage
// breakdown summing to (within slop of) the client's measured RTT.
func TestQueryTraceSpanTree(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	var trace lockedBuffer
	o := obs.New(obs.NewJSONLSink(&trace), obs.NewRegistry(time.Millisecond))
	o.EnableSpans()
	s := startServer(t, cat, Config{Obs: o})

	c, err := Dial(s.Addr(), ClientConfig{Name: "tracer"})
	if err != nil {
		t.Fatal(err)
	}
	if c.SessionID() == 0 {
		t.Fatal("v2 server assigned session ID 0")
	}
	sent := time.Now()
	res, err := c.Query(context.Background(), workload.QueryTexts()[0])
	rtt := time.Since(sent)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	s.Close()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	st := res.Stats
	if st.TraceID == 0 {
		t.Fatal("stats frame carries no trace ID")
	}
	if want := c.SessionID()<<32 | 1; st.TraceID != want {
		t.Errorf("server did not adopt the client's trace ID: got %x, want %x", st.TraceID, want)
	}
	serverSide := st.AdmitWait + st.Sched + st.Exec + st.Stream
	if serverSide <= 0 {
		t.Fatalf("server stage breakdown sums to %v, want > 0", serverSide)
	}
	if serverSide > rtt+50*time.Millisecond {
		t.Errorf("server stages sum to %v, more than the client RTT %v", serverSide, rtt)
	}

	spans, err := obs.ReadSpans(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]obs.SpanData{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	// Locate the server's query span and index its stage children.
	var qspan obs.SpanData
	found := false
	for _, sp := range spans {
		if sp.Kind == obs.SpanQuery && sp.Comp == "server" {
			qspan, found = sp, true
		}
	}
	if !found {
		t.Fatal("no server query span in the trace")
	}
	parent, ok := byID[qspan.Parent]
	if !ok || parent.Kind != obs.SpanSession {
		t.Fatalf("query span's parent is %+v, want the session span", parent)
	}
	stages := map[string]obs.SpanData{}
	for _, sp := range spans {
		if sp.Kind == obs.SpanStage && sp.Parent == qspan.ID {
			stages[sp.Name] = sp
		}
	}
	for _, want := range []string{"admit-wait", "schedule", "execute", "stream"} {
		sp, ok := stages[want]
		if !ok {
			t.Fatalf("query span has no %q stage child (have %v)", want, stageNames(stages))
		}
		if sp.End < sp.Start {
			t.Errorf("stage %q runs backwards: [%v, %v]", want, sp.Start, sp.End)
		}
	}
	// The engine's own root span must hang under the execute stage, so
	// the whole execution is one tree: session → query → execute →
	// engine query → node/worker spans.
	var engineRoot obs.SpanData
	found = false
	for _, sp := range spans {
		if sp.Kind == obs.SpanQuery && sp.Comp == "engine" {
			engineRoot, found = sp, true
		}
	}
	if !found {
		t.Fatal("no engine query span in the trace; engine runs unlinked")
	}
	if engineRoot.Parent != stages["execute"].ID {
		t.Errorf("engine root's parent is span %d, want the execute stage span %d",
			engineRoot.Parent, stages["execute"].ID)
	}
	kids := 0
	for _, sp := range spans {
		if sp.Parent == engineRoot.ID {
			kids++
		}
	}
	if kids == 0 {
		t.Error("engine root span has no children; node spans detached")
	}
}

func stageNames(m map[string]obs.SpanData) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// lockedBuffer is a bytes.Buffer safe for the sink's writer goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.b.Bytes()...)
}

// TestFlightRecordBeforeStats: the flight-recorder entry of a query is
// complete by the time its Stats frame reaches the client (PR 17), and
// carries the trace ID the Stats frame echoes.
func TestFlightRecordBeforeStats(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	o := obs.New(nil, obs.NewRegistry(time.Millisecond))
	o.EnableFlight(8)
	s := startServer(t, cat, Config{Obs: o})

	c, err := Dial(s.Addr(), ClientConfig{Name: "flight"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ProtocolVersion(); got != wire.Version {
		t.Fatalf("negotiated v%d, want v%d", got, wire.Version)
	}
	res, err := c.Query(context.Background(), workload.QueryTexts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TraceID == 0 {
		t.Fatal("stats frame carries no trace ID")
	}
	recent := o.Flight().Recent()
	if len(recent) != 1 || recent[0].TraceID != res.Stats.TraceID || recent[0].Outcome != obs.OutcomeOK {
		t.Fatalf("flight recorder as the stats frame arrived = %+v, want one ok record with trace ID %d", recent, res.Stats.TraceID)
	}
}

// TestFlightRecordCarriesEngineAccount: a finished query's flight record
// carries the engine's account of it — dispatches, hash probes and hash
// builds — as /queries/recent serves it. A join probes and builds; a
// restrict dispatches but never probes; a durable write, applied through
// the log and not by the engine, records zeros.
func TestFlightRecordCarriesEngineAccount(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	l, fresh, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if fresh != nil {
		t.Fatal("a new log directory recovered a catalog")
	}
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(time.Millisecond)
	o := obs.New(nil, reg)
	o.EnableFlight(8)
	s := startServer(t, cat, Config{Obs: o, WAL: l, CheckpointEvery: -1})
	hsrv, err := obs.StartServer("127.0.0.1:0", reg, nil, o.Flight())
	if err != nil {
		t.Fatal(err)
	}
	defer hsrv.Close()
	c, err := Dial(s.Addr(), ClientConfig{Name: "account"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		join     = `join(restrict(r2, val < 120), restrict(r3, val < 120), k1 = k1)`
		restrict = `restrict(r1, val < 100)`
		write    = `append(r15, restrict(r1, val < 150))`
	)
	for _, q := range []string{join, restrict, write} {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	var rec struct {
		Recent []obs.QueryRecord `json:"recent"`
	}
	if err := getJSON("http://"+hsrv.Addr()+"/queries/recent", &rec); err != nil {
		t.Fatal(err)
	}
	byText := map[string]obs.QueryRecord{}
	for _, r := range rec.Recent {
		byText[r.Text] = r
	}
	if r := byText[join]; r.HashProbes <= 0 || r.HashBuilds <= 0 || r.Dispatches <= 0 {
		t.Errorf("join record: %d dispatches, %d probes, %d builds; want all > 0", r.Dispatches, r.HashProbes, r.HashBuilds)
	}
	if r := byText[restrict]; r.HashProbes != 0 || r.HashBuilds != 0 || r.Dispatches < 1 {
		t.Errorf("restrict record: %d dispatches, %d probes, %d builds; want >= 1, 0, 0", r.Dispatches, r.HashProbes, r.HashBuilds)
	}
	if r, ok := byText[write]; !ok || r.Outcome != obs.OutcomeOK || r.Dispatches != 0 || r.HashProbes != 0 || r.HashBuilds != 0 {
		t.Errorf("durable write record %+v: want an ok record of zeros", r)
	}
}

// TestServerAssignsTraceID: a raw v2 query frame with no trace ID still
// gets one server-side, returned on the stats frame.
func TestServerAssignsTraceID(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, &wire.Hello{Min: wire.MinVersion, Max: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Read(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, &wire.Query{ID: 1, Priority: 1, Text: workload.QueryTexts()[0]}); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := wire.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		if st, ok := f.(*wire.Stats); ok {
			if st.TraceID == 0 {
				t.Fatal("server did not assign a trace ID to an untraced query")
			}
			return
		}
	}
}

// TestSoakIntrospectionUnderLoad: fifty concurrent clients while the
// introspection HTTP server is scraped mid-flight — /queries must show
// only valid lifecycle stages, /queries/recent must retain completed
// queries up to the ring capacity, and the per-lane wait and stream
// histograms must have counted every query. The race detector guards
// the whole arrangement.
func TestSoakIntrospectionUnderLoad(t *testing.T) {
	const (
		clients      = 50
		perClient    = 2
		ringCapacity = 16
	)
	cat, _ := testDB(t, 0.05)
	reg := obs.NewRegistry(time.Millisecond)
	o := obs.New(nil, reg)
	o.EnableFlight(ringCapacity)
	s := startServer(t, cat, Config{Obs: o, QueueDepth: 4 * clients * perClient, MaxSessions: 2 * clients})
	hsrv, err := obs.StartServer("127.0.0.1:0", reg, nil, o.Flight())
	if err != nil {
		t.Fatal(err)
	}
	defer hsrv.Close()
	base := "http://" + hsrv.Addr()

	validStages := map[string]bool{
		obs.StageAdmitWait: true, obs.StageSchedule: true,
		obs.StageExecute: true, obs.StageStream: true,
	}
	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var in struct {
				InFlight []obs.QueryRecord `json:"inflight"`
			}
			if err := getJSON(base+"/queries", &in); err != nil {
				scrapeErr <- err
				return
			}
			for _, r := range in.InFlight {
				if !validStages[r.Stage] {
					scrapeErr <- fmt.Errorf("in-flight query %x in unknown stage %q", r.TraceID, r.Stage)
					return
				}
				if r.TraceID == 0 {
					scrapeErr <- fmt.Errorf("in-flight query with zero trace ID: %+v", r)
					return
				}
			}
			var rec struct {
				Recent   []obs.QueryRecord `json:"recent"`
				Capacity int               `json:"capacity"`
			}
			if err := getJSON(base+"/queries/recent", &rec); err != nil {
				scrapeErr <- err
				return
			}
			if len(rec.Recent) > ringCapacity {
				scrapeErr <- fmt.Errorf("ring overflows: %d records, capacity %d", len(rec.Recent), ringCapacity)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), ClientConfig{Name: fmt.Sprintf("soak-%d", id)})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				text := workload.QueryTexts()[(id+j)%len(workload.QueryTexts())]
				if _, err := c.Query(context.Background(), text); err != nil {
					errs <- fmt.Errorf("client %d: %w", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if err, ok := <-scrapeErr; ok && err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	f := o.Flight()
	if got := f.TotalCompleted(); got != clients*perClient {
		t.Errorf("flight recorder completed %d queries, want %d", got, clients*perClient)
	}
	recent := f.Recent()
	if len(recent) != ringCapacity {
		t.Errorf("ring retains %d, want full capacity %d", len(recent), ringCapacity)
	}
	for _, r := range recent {
		if r.Outcome != obs.OutcomeOK {
			t.Errorf("query %x finished %q, want ok", r.TraceID, r.Outcome)
		}
		if r.Exec <= 0 || r.Total <= 0 {
			t.Errorf("query %x retained without timings: %+v", r.TraceID, r)
		}
	}
	if len(f.InFlight()) != 0 {
		t.Errorf("%d queries still in flight after the soak", len(f.InFlight()))
	}
	// Every query passed through the normal admission lane and the
	// stream path, so both histograms must have counted all of them.
	if h := reg.FindHistogram("sched.admit_wait_ns.normal"); h.Count() != clients*perClient {
		t.Errorf("admit-wait histogram counted %d, want %d", h.Count(), clients*perClient)
	}
	if h := reg.FindHistogram("server.stream_ns"); h.Count() != clients*perClient {
		t.Errorf("stream histogram counted %d, want %d", h.Count(), clients*perClient)
	}
	// And the Prometheus exposition must carry the new families.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"sched_admit_wait_ns_normal_bucket{le=", "sched_admit_wait_ns_normal_p99",
		"server_stream_ns_count", "sched_exec_ns_p50",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSlowQueryLog: a threshold of one nanosecond makes every query
// slow; the log line and the counter must both appear.
func TestSlowQueryLog(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	reg := obs.NewRegistry(time.Millisecond)
	o := obs.New(nil, reg)
	var logBuf lockedBuffer
	s := startServer(t, cat, Config{Obs: o, SlowQuery: time.Nanosecond, SlowQueryLog: &logBuf})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), workload.QueryTexts()[0]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	s.Close()
	line := string(logBuf.Bytes())
	if !strings.Contains(line, "slow query") || !strings.Contains(line, "admit-wait=") {
		t.Fatalf("slow-query log = %q, want a line with the stage breakdown", line)
	}
	if got := reg.Counter("server.slow_queries"); got < 1 {
		t.Fatalf("server.slow_queries = %d, want >= 1", got)
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestDisabledObservabilityAllocsServicePath extends the machine
// package's zero-cost contract to the service path: with no observer
// configured, every per-query instrumentation hook the server calls —
// counters, gauges, events, flight-recorder stage tracking, and the
// stream histogram — must allocate nothing.
func TestDisabledObservabilityAllocsServicePath(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{}) // no Obs: everything disabled
	allocs := testing.AllocsPerRun(1000, func() {
		// The exact hook shapes handleQuery and finishResult go through.
		s.count("server.queries", 1)
		s.gauge("server.sessions_active", 1)
		s.event(obs.EvNote, -1, "quiet")
		s.flight.Start(obs.QueryRecord{TraceID: 1})
		s.flight.SetStage(1, obs.StageExecute)
		s.flight.Finish(1, obs.OutcomeOK, nil)
		s.streamHist.ObserveDuration(time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("disabled service-path observability allocates %v per query, want 0", allocs)
	}
}
