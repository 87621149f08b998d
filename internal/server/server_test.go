package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/wire"
	"dfdbm/internal/workload"
)

// testDB builds a small paper workload database once per test.
func testDB(t *testing.T, scale float64) (*catalog.Catalog, []*query.Tree) {
	t.Helper()
	cat, qs, err := workload.Build(workload.Config{Seed: 42, Scale: scale, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return cat, qs
}

func startServer(t *testing.T, cat *catalog.Catalog, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := Start(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestHandshakeAndSimpleQuery(t *testing.T) {
	cat, qs := testDB(t, 0.1)
	s := startServer(t, cat, Config{})
	c, err := Dial(s.Addr(), ClientConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Engine() != EngineCore {
		t.Fatalf("negotiated engine %q, want %q", c.Engine(), EngineCore)
	}
	res, err := c.Query(context.Background(), workload.QueryTexts()[0])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := query.ExecuteSerial(cat, qs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relation.EqualMultiset(ref) {
		t.Fatalf("remote result differs from serial reference (%d vs %d tuples)",
			res.Relation.Cardinality(), ref.Cardinality())
	}
	if res.Stats == nil || res.Stats.Engine != EngineCore {
		t.Fatalf("stats frame missing or wrong engine: %+v", res.Stats)
	}
	if res.Stats.Tuples != int64(ref.Cardinality()) {
		t.Fatalf("stats report %d tuples, result has %d", res.Stats.Tuples, ref.Cardinality())
	}
}

// helloRefusal opens a raw session whose Hello names engine and returns
// the Error frame the server answers with.
func helloRefusal(t *testing.T, addr, engine string) *wire.Error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, &wire.Hello{Min: wire.MinVersion, Max: wire.Version, Engine: engine}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := f.(*wire.Error)
	if !ok {
		t.Fatalf("hello naming engine %q: got %#v, want an error frame", engine, f)
	}
	return e
}

// TestMachineEngineRefused: the server runs one engine. A Hello naming
// the simulated ring machine gets a session-wide protocol error that
// names it, and a server configured for it does not start.
func TestMachineEngineRefused(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{})
	e := helloRefusal(t, s.Addr(), "machine")
	if e.Code != wire.CodeProtocol || e.QueryID != wire.SessionQueryID || !strings.Contains(e.Msg, `"machine"`) {
		t.Fatalf("got %#v, want a session-wide protocol error naming the engine", e)
	}
	s2, err := Start(cat, Config{Engine: "machine"})
	if err == nil {
		s2.Close()
		t.Fatal("Start with engine machine succeeded")
	}
	if !strings.Contains(err.Error(), `"core"`) {
		t.Fatalf("Start with engine machine: %v, want an error naming %q", err, EngineCore)
	}
}

// TestVersionNegotiationRejected dials with a version range the server
// cannot serve and expects a typed version error frame.
func TestVersionNegotiationRejected(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, &wire.Hello{Min: wire.Version + 1, Max: wire.Version + 3}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := f.(*wire.Error)
	if !ok || e.Code != wire.CodeVersion {
		t.Fatalf("got %#v, want version error frame", f)
	}
}

// TestV1HelloRefused: a client that speaks only wire v1 gets a typed
// version error frame, not a session.
func TestV1HelloRefused(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, &wire.Hello{Min: 1, Max: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := f.(*wire.Error); !ok || e.Code != wire.CodeVersion || e.QueryID != wire.SessionQueryID {
		t.Fatalf("got %#v, want a session-wide version error frame", f)
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{})
	if e := helloRefusal(t, s.Addr(), "abacus"); e.Code != wire.CodeProtocol {
		t.Fatalf("got %#v, want a protocol error", e)
	}
}

func TestParseErrorIsTyped(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), `restrict(r1, `)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeParse {
		t.Fatalf("got %v, want RemoteError with code %q", err, wire.CodeParse)
	}
	// The session survives a parse error.
	if _, err := c.Query(context.Background(), `restrict(r1, val < 50)`); err != nil {
		t.Fatalf("query after parse error: %v", err)
	}
}

func TestSessionTableOverload(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{MaxSessions: 1})
	c1, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	_, err = Dial(s.Addr(), ClientConfig{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("second dial got %v, want overloaded", err)
	}
}

// TestMaxInflightSheds holds the runner pool at a gate and pushes more
// queries down one session than its in-flight window allows.
func TestMaxInflightSheds(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	testExecGate = func(ctx context.Context) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testExecGate = nil })

	s := startServer(t, cat, Config{MaxInflight: 2, Runners: 1, QueueDepth: 8})
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
	// Query 0 occupies the single runner (held at the gate); query 1
	// waits in the admission queue; query 2 exceeds the window.
	for id := uint32(0); id < 3; id++ {
		if err := wire.Write(conn, &wire.Query{ID: id, Priority: 1, Text: `restrict(r1, val < 50)`}); err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			<-started // runner is now held; 1 and 2 cannot complete early
		}
	}
	f, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := f.(*wire.Error)
	if !ok || e.QueryID != 2 || e.Code != wire.CodeOverloaded {
		t.Fatalf("got %#v, want overloaded error for query 2", f)
	}
	close(release)
	// Queries 0 and 1 still complete.
	done := map[uint32]bool{}
	for len(done) < 2 {
		f, err := wire.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		if st, ok := f.(*wire.Stats); ok {
			done[st.QueryID] = true
		}
	}
}

// TestGracefulDrain starts a query, begins Shutdown, and checks that
// (a) new connections and new queries are refused as draining, (b) the
// in-flight query still streams its full result, (c) Shutdown returns
// cleanly.
func TestGracefulDrain(t *testing.T) {
	cat, qs := testDB(t, 0.05)
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	testExecGate = func(ctx context.Context) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testExecGate = nil })

	s := startServer(t, cat, Config{})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resc := make(chan *QueryResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := c.Query(context.Background(), workload.QueryTexts()[0])
		if err != nil {
			errc <- err
			return
		}
		resc <- res
	}()
	<-started // the query is on a runner

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New connections are turned away as draining.
	_, err = Dial(s.Addr(), ClientConfig{})
	var re *RemoteError
	if err == nil || (errors.As(err, &re) && re.Code != wire.CodeDraining) {
		t.Fatalf("dial during drain got %v, want draining refusal", err)
	}

	close(release)
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown hung")
	}
	select {
	case res := <-resc:
		ref, err := query.ExecuteSerial(cat, qs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Relation.EqualMultiset(ref) {
			t.Fatal("drained query result differs from serial reference")
		}
	case err := <-errc:
		t.Fatalf("in-flight query was not drained: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query never finished")
	}
}

// TestDrainDeadlineCancels verifies a stuck query cannot outlive the
// drain timeout.
func TestDrainDeadlineCancels(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	started := make(chan struct{}, 16)
	testExecGate = func(ctx context.Context) {
		started <- struct{}{}
		<-ctx.Done() // never released: only the drain cancel frees it
	}
	t.Cleanup(func() { testExecGate = nil })

	s := startServer(t, cat, Config{})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), workload.QueryTexts()[0])
		errc <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	begin := time.Now()
	err = s.Shutdown(ctx)
	if err == nil {
		t.Fatal("shutdown of a stuck query reported success")
	}
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v, deadline was 300ms", elapsed)
	}
	if qerr := <-errc; qerr == nil {
		t.Fatal("stuck query reported success after forced drain")
	}
}

// TestTransportPageFidelity runs the same query on a local engine and
// through the server (single worker, so page packing is deterministic)
// and requires byte-identical pages — the transport must ship the
// engine's pages verbatim. Agreement alone would pass if both drifted,
// so it also checks the geometry served: pages of core's default size,
// and a multi-page join of the mix in as few pages as its tuples fill,
// because the compressor packs full pages.
func TestTransportPageFidelity(t *testing.T) {
	cat, qs := testDB(t, 0.3)
	s := startServer(t, cat, Config{Workers: 1})
	local := core.New(cat, core.Options{Granularity: core.PageLevel, Workers: 1})
	ref, err := local.ExecuteContext(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query(context.Background(), workload.QueryTexts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.PageSize(); got != core.DefaultPageSize {
		t.Errorf("served result has %d-byte pages, want core's default %d", got, core.DefaultPageSize)
	}
	refPages := ref.Relation.Pages()
	gotPages := res.Relation.Pages()
	if len(refPages) != len(gotPages) {
		t.Fatalf("transport returned %d pages, engine produced %d", len(gotPages), len(refPages))
	}
	for i := range refPages {
		want, got := refPages[i].Marshal(), gotPages[i].Marshal()
		if string(want) != string(got) {
			t.Fatalf("page %d bytes differ after transport", i)
		}
	}

	join := workload.QueryTexts()[2] // one join of two restricts
	res, err = c.Query(context.Background(), join)
	if err != nil {
		t.Fatal(err)
	}
	perPage := int64((core.DefaultPageSize - relation.PageHeaderLen) / res.Relation.Schema().TupleLen())
	st := res.Stats
	if want := (st.Tuples + perPage - 1) / perPage; st.Pages != want || want < 2 {
		t.Errorf("%s: %d tuples in %d pages, want %d full pages of %d and at least 2", join, st.Tuples, st.Pages, want, perPage)
	}
}

// TestAcceptancePaperWorkloadConcurrentSessions is the tentpole
// acceptance check: the full ten-query paper workload, issued from ten
// concurrent sessions, must match the serial reference executor.
func TestAcceptancePaperWorkloadConcurrentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-session workload in -short mode")
	}
	cat, qs := testDB(t, 0.1)
	refs := make([]*relation.Relation, len(qs))
	for i, q := range qs {
		ref, err := query.ExecuteSerial(cat, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	s := startServer(t, cat, Config{Runners: 8, QueueDepth: 256, MaxInflight: 4})
	texts := workload.QueryTexts()
	const sessions = 10
	var wg sync.WaitGroup
	errs := make(chan error, sessions*len(texts))
	for sid := 0; sid < sessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), ClientConfig{Name: fmt.Sprintf("sess-%d", sid)})
			if err != nil {
				errs <- fmt.Errorf("session %d: dial: %w", sid, err)
				return
			}
			defer c.Close()
			for qi := range texts {
				// Stagger per-session order so sessions collide on
				// different queries at different times.
				q := (qi + sid) % len(texts)
				res, err := c.Query(context.Background(), texts[q])
				if err != nil {
					errs <- fmt.Errorf("session %d query %d: %w", sid, q, err)
					return
				}
				if !res.Relation.EqualMultiset(refs[q]) {
					errs <- fmt.Errorf("session %d query %d: result differs from serial reference (%d vs %d tuples)",
						sid, q, res.Relation.Cardinality(), refs[q].Cardinality())
					return
				}
			}
		}(sid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFiftyConcurrentClients is the CI soak: 50 sessions dial at once
// and each runs a couple of queries; with a deep enough admission
// queue nothing may be shed and every result must be right.
func TestFiftyConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("50-client soak in -short mode")
	}
	cat, qs := testDB(t, 0.05)
	refs := make([]*relation.Relation, 3)
	for i := range refs {
		ref, err := query.ExecuteSerial(cat, qs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	s := startServer(t, cat, Config{MaxSessions: 64, Runners: 8, QueueDepth: 256})
	texts := workload.QueryTexts()

	const clients = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), ClientConfig{Name: fmt.Sprintf("soak-%d", id)})
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			for r := 0; r < 2; r++ {
				q := (id + r) % len(refs)
				res, err := c.Query(context.Background(), texts[q])
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", id, q, err)
					return
				}
				if !res.Relation.EqualMultiset(refs[q]) {
					errs <- fmt.Errorf("client %d query %d: wrong result", id, q)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerMetricsAndSpans checks the observability contract: session
// and scheduler counters move, and session/query spans close.
func TestServerMetricsAndSpans(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	reg := obs.NewRegistry(time.Millisecond)
	o := obs.New(nil, reg)
	o.EnableSpans()
	s := startServer(t, cat, Config{Obs: o})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), workload.QueryTexts()[0]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	s.Close()

	if got := reg.Counter("server.sessions"); got < 1 {
		t.Fatalf("server.sessions = %d, want >= 1", got)
	}
	if got := reg.Counter("server.queries"); got < 1 {
		t.Fatalf("server.queries = %d, want >= 1", got)
	}
	if got := reg.Counter("sched.admitted"); got < 1 {
		t.Fatalf("sched.admitted = %d, want >= 1", got)
	}
	var sessions, queries int
	for _, sp := range o.Spans().Snapshot() {
		switch sp.Kind {
		case obs.SpanSession:
			sessions++
		case obs.SpanQuery:
			queries++
		}
		if sp.End == 0 {
			t.Fatalf("span %s %q never closed", sp.Kind, sp.Name)
		}
	}
	if sessions < 1 || queries < 1 {
		t.Fatalf("spans: %d session, %d query, want >= 1 each", sessions, queries)
	}
}

// TestWriteResultStreamsDoNotRace is a regression test for streaming a
// live catalog relation after the scheduler retired the query: append
// and delete hand back the shared target relation, so reading its
// pages outside the scheduler's admission exclusion races with the
// next admitted writer. Two sessions hammer conflicting deletes on the
// same relation; the race detector is the assertion.
func TestWriteResultStreamsDoNotRace(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	s := startServer(t, cat, Config{Runners: 4})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr(), ClientConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for n := 0; n < 25; n++ {
				if _, err := c.Query(context.Background(), `delete(r1, val < 0)`); err != nil {
					t.Errorf("delete %d: %v", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleTimeoutRearmsWhileQueryInFlight: a quiet client with a query
// still executing must survive several idle deadlines and receive its
// result.
func TestIdleTimeoutRearmsWhileQueryInFlight(t *testing.T) {
	cat, qs := testDB(t, 0.05)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	testExecGate = func(ctx context.Context) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testExecGate = nil })

	s := startServer(t, cat, Config{SessionTimeout: 150 * time.Millisecond})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resc := make(chan *QueryResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := c.Query(context.Background(), workload.QueryTexts()[0])
		if err != nil {
			errc <- err
			return
		}
		resc <- res
	}()
	<-started
	time.Sleep(600 * time.Millisecond) // several idle deadlines fire
	close(release)
	select {
	case res := <-resc:
		ref, err := query.ExecuteSerial(cat, qs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Relation.EqualMultiset(ref) {
			t.Fatal("result after idle re-arm differs from serial reference")
		}
	case err := <-errc:
		t.Fatalf("session died during idle re-arm: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("query never finished")
	}
}

// TestMidFrameTimeoutClosesSession: when the read deadline fires after
// part of a frame was consumed, the session must close as
// protocol-broken — re-arming would desync the frame stream for good.
func TestMidFrameTimeoutClosesSession(t *testing.T) {
	cat, _ := testDB(t, 0.05)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	testExecGate = func(ctx context.Context) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testExecGate = nil })
	defer close(release)

	s := startServer(t, cat, Config{SessionTimeout: 200 * time.Millisecond})
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
	// A held query keeps the session's in-flight count non-zero, so the
	// idle re-arm path is live.
	if err := wire.Write(conn, &wire.Query{ID: 1, Priority: 1, Text: `restrict(r1, val < 50)`}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Send 3 of the 5 bytes of the next frame header, then go quiet so
	// the deadline fires mid-frame.
	if _, err := conn.Write([]byte{byte(wire.TypeQuery), 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("session stayed open after a mid-frame timeout")
			}
			return // server closed the desynced session: pass
		}
	}
}
