// Package server implements the dfdbm network query service: the host
// processor of the paper's Section 4 machine, made real. A Server
// listens on TCP, speaks the internal/wire protocol, runs one
// goroutine per client session, and funnels every received query
// through the internal/sched admission scheduler — the generalization
// of the master controller's read/write-set concurrency control — onto
// a pool of engine runners. Every session runs on the concurrent
// data-flow engine (internal/core). The simulated Section 4 ring
// machine (internal/machine) is an experiment tool and is not linked
// here; the root package's TestServerLinksNoSimulator keeps it so.
//
// Results stream back as page frames in relation wire form, so the
// relation a client reassembles is byte-for-byte the relation the
// engine produced, and they stream while the query executes: the core
// engine's root hands each page to the session as it is produced (see
// resultStream). Overload is shed, never buffered: a full admission
// queue, a full per-session in-flight window, or a full session table
// answers with an "overloaded" error frame immediately.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/sched"
	"dfdbm/internal/wal"
	"dfdbm/internal/wire"
)

// EngineCore is the one engine name accepted in Config.Engine and the
// Hello handshake, and the one every session reports.
const EngineCore = "core"

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address; ":0" or "127.0.0.1:0" picks a
	// free port (see Server.Addr). Default "127.0.0.1:0".
	Addr string
	// Engine must be EngineCore or empty; Start refuses any other value,
	// as the handshake refuses a Hello naming another engine. ROADMAP
	// 2(v) deletes it once benchmark/env.go stops setting it.
	Engine string
	// MaxSessions bounds concurrent sessions; further connections are
	// refused with an "overloaded" error frame. Default 64.
	MaxSessions int
	// MaxInflight bounds the queries one session may have in flight;
	// excess queries are answered "overloaded" without touching the
	// scheduler. Default 4.
	MaxInflight int
	// QueueDepth and Runners configure the admission scheduler (see
	// sched.Config). MaxRunners bounds runtime pool resizes (defaults
	// to Runners: a fixed pool).
	QueueDepth int
	Runners    int
	MaxRunners int
	// Autoscale, when non-nil, attaches a sched.Autoscaler to the
	// runner pool: the pool resizes between Autoscale.Min and
	// Autoscale.Max against the scheduler's queue-depth and admit-wait
	// signals. MaxRunners is raised to Autoscale.Max if below it.
	Autoscale *sched.AutoscaleConfig
	// SessionTimeout is the per-session idle deadline: a session with
	// no in-flight query that sends nothing for this long is closed.
	// Default 5 minutes.
	SessionTimeout time.Duration
	// Workers is the worker-pool size of each core-engine execution.
	// Default 4.
	Workers int
	// IPs is ignored. It stays only because benchmark/env.go sets it;
	// ROADMAP 2(v) drops it there and then deletes it here.
	IPs int
	// SlowQuery, when positive, is the end-to-end threshold (arrival
	// to final stats frame) above which a completed query is logged to
	// SlowQueryLog with its full stage breakdown and counted as
	// server.slow_queries.
	SlowQuery time.Duration
	// SlowQueryLog receives slow-query log lines (os.Stderr when nil).
	SlowQueryLog io.Writer
	// WAL, when non-nil, makes the write path durable: the redo record
	// every append and delete query becomes (wal.Write) is fsynced into
	// the log before it is applied to the catalog or acknowledged to the
	// client. A server killed at any instant recovers exactly the
	// acknowledged writes on the next wal.Open. Without it a stored
	// relation refuses writes.
	WAL *wal.Log
	// CheckpointEvery, with WAL, is the auto-checkpoint threshold: once
	// the log grows this many bytes past the last checkpoint, the
	// server schedules a checkpoint job whose footprint writes every
	// relation, so it runs under total admission exclusion. 0 defaults
	// to 8 MiB; negative disables auto-checkpointing (Checkpoint can
	// still be driven externally, e.g. at shutdown).
	CheckpointEvery int64
	// Obs, when non-nil, receives server events (sessions opened and
	// closed, queries received, results streamed), the server.*
	// counters and gauges, per-session and per-query spans (when spans
	// are enabled), the server.stream_ns histogram, and everything the
	// admission scheduler records. When the observer carries a flight
	// recorder (Observer.EnableFlight), every served query is recorded
	// in it: live while in flight with its current lifecycle stage,
	// then retained in the completed ring.
	Obs *obs.Observer
}

func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	switch c.Engine {
	case "":
		c.Engine = EngineCore
	case EngineCore:
	default:
		return c, fmt.Errorf("server: unknown engine %q (want %q)", c.Engine, EngineCore)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 5 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SlowQuery > 0 && c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	if c.WAL != nil && c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8 << 20
	}
	return c, nil
}

// testExecGate, when non-nil, runs at the start of every scheduled
// query execution. Tests set it (before Start) to hold runners at a
// known point; it must respect ctx.
var testExecGate func(ctx context.Context)

// Server is a running query service.
type Server struct {
	cat    *catalog.Catalog
	cfg    Config
	start  time.Time
	sched  *sched.Scheduler
	engine *core.Engine // shared: safe for concurrent non-conflicting executions
	ln     net.Listener

	// flight is the observer's flight recorder (nil without one);
	// traceSeq assigns trace IDs to queries whose client did not
	// propose one; streamHist meters result-stream time; slowMu
	// serializes slow-query log lines.
	flight     *obs.FlightRecorder
	traceSeq   atomic.Uint64
	streamHist *obs.Histogram
	slowMu     sync.Mutex

	// ckptBusy singleflights auto-checkpoints: at most one checkpoint
	// job is queued or running at a time.
	ckptBusy atomic.Bool

	// execDelay, when positive, is an artificial delay (ns) injected at
	// the start of every scheduled execution — the load generator's
	// "node slowdown" fault: queries still run correctly, just slower,
	// so backlog, shedding, and autoscaling react as they would to a
	// degraded node.
	execDelay atomic.Int64

	// autoscaler is the runner-pool control loop (nil without
	// Config.Autoscale).
	autoscaler *sched.Autoscaler

	mu       sync.Mutex
	sessions map[int]*session
	nextSID  int
	draining bool
	closed   bool

	acceptWg sync.WaitGroup // the accept loop
	sessWg   sync.WaitGroup // session goroutines
	queryWg  sync.WaitGroup // per-query result streamers
}

// Start builds a server over the catalog and begins accepting
// sessions.
func Start(cat *catalog.Catalog, cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cat:      cat,
		cfg:      cfg,
		start:    time.Now(),
		ln:       ln,
		sessions: map[int]*session{},
		nextSID:  1, // 0 is "no session" on the wire (Hello.SessionID)
		flight:   cfg.Obs.Flight(),
	}
	maxRunners := cfg.MaxRunners
	if cfg.Autoscale != nil && cfg.Autoscale.Max > maxRunners {
		maxRunners = cfg.Autoscale.Max
	}
	s.sched = sched.New(sched.Config{
		Runners:    cfg.Runners,
		MaxRunners: maxRunners,
		QueueDepth: cfg.QueueDepth,
		Obs:        cfg.Obs,
	})
	if cfg.Autoscale != nil {
		s.autoscaler = sched.StartAutoscaler(s.sched, *cfg.Autoscale)
	}
	s.engine = core.New(cat, core.Options{Workers: cfg.Workers, Obs: cfg.Obs})
	if cfg.Obs.MetricsOn() {
		s.streamHist = cfg.Obs.Registry().Histogram("server.stream_ns", obs.DurationBuckets())
	}
	s.acceptWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address ("127.0.0.1:43781").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetExecDelay injects (or, with 0, removes) an artificial delay at the
// start of every scheduled query execution — the load generator's node
// slowdown fault. Safe to call at any time.
func (s *Server) SetExecDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.execDelay.Store(int64(d))
}

// Scheduler exposes the admission scheduler, for control loops layered
// above the server (the load generator resizes the runner pool through
// it when comparing fixed and autoscaled configurations).
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			_ = wire.Write(conn, &wire.Error{QueryID: wire.SessionQueryID, Code: wire.CodeDraining, Msg: "server is shutting down"})
			conn.Close()
			continue
		}
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.mu.Unlock()
			s.count("server.sessions_refused", 1)
			_ = wire.Write(conn, &wire.Error{QueryID: wire.SessionQueryID, Code: wire.CodeOverloaded,
				Msg: fmt.Sprintf("session table full (%d sessions)", s.cfg.MaxSessions)})
			conn.Close()
			continue
		}
		sid := s.nextSID
		s.nextSID++
		sess := &session{
			id:   sid,
			srv:  s,
			conn: conn,
			br:   bufio.NewReader(conn),
		}
		s.sessions[sid] = sess
		active := len(s.sessions)
		s.mu.Unlock()

		s.count("server.sessions", 1)
		s.gauge("server.sessions_active", float64(active))
		s.event(obs.EvNote, -1, "session %d open from %s (%d active)", sid, conn.RemoteAddr(), active)
		s.sessWg.Add(1)
		go sess.run()
	}
}

// remove unregisters a finished session.
func (s *Server) remove(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	active := len(s.sessions)
	s.mu.Unlock()
	s.gauge("server.sessions_active", float64(active))
	s.event(obs.EvNote, -1, "session %d closed (%d active)", sess.id, active)
}

// Draining reports whether a graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server gracefully: the listener closes, new
// queries are rejected with "draining" error frames, and in-flight
// queries run to completion with their results fully streamed. When
// ctx expires first, remaining work is cancelled and ctx's error
// returned. The paper's host processor behaves the same way: the MC
// finishes what it admitted, and admits nothing more.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.event(obs.EvNote, -1, "drain: rejecting new work, finishing in-flight queries")
	s.ln.Close()
	s.acceptWg.Wait()
	s.autoscaler.Stop()

	drainErr := s.sched.Drain(ctx) // nil, or ctx's error after cancelling
	// Wait for result streams to flush (bounded by ctx).
	streamed := make(chan struct{})
	go func() {
		s.queryWg.Wait()
		close(streamed)
	}()
	select {
	case <-streamed:
	case <-ctx.Done():
		if drainErr == nil {
			drainErr = ctx.Err()
		}
	}
	s.closeSessions()
	s.sessWg.Wait()
	s.queryWg.Wait()
	s.markClosed()
	return drainErr
}

// Close stops the server immediately: in-flight queries are cancelled.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()
	s.acceptWg.Wait()
	s.autoscaler.Stop()
	s.sched.Close()
	s.closeSessions()
	s.sessWg.Wait()
	s.queryWg.Wait()
	s.markClosed()
	return nil
}

func (s *Server) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *Server) closeSessions() {
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
}

// bindError marks a query that failed name or schema resolution, so
// the result streamer answers it with the parse error code even though
// binding happens inside the scheduled execution.
type bindError struct{ err error }

func (e *bindError) Error() string { return e.err.Error() }
func (e *bindError) Unwrap() error { return e.err }

// resultStream is one query's queue of result frames: the scheduled
// Exec appends to it and the query's streamer goroutine writes whatever
// is queued to the connection, while the query is still executing. The
// producer never waits for the client — unsent pages are bounded by the
// result — so a stalled client neither holds the admission slot nor
// lengthens Stats.Exec.
//
// A frame is queued as its head (wire.AppendResultHead: the frame
// header, the ResultPage fields and the page's own header) and a
// reference to the page itself. The streamer takes everything queued at
// once, writes it with one vectored write — each head, then the page's
// payload as the page holds it — and releases the pages. No result byte
// is copied on its way out, and what a queued result holds is pages
// under the free list's one budget (relation.PageBudget), not memory of
// the server's own.
//
// Every frame is queued inside the job's scheduled Exec. Reads on the
// core engine queue each page as the root operator emits it; append and
// delete hand back the written relation, walked before Exec returns.
// The stream may hold a page long after Exec, and that is safe because
// no page is written once it is published: a write, append or delete,
// installs fresh post-images (heap.Pool.Install, Relation.InstallPage)
// and ends the relation after them (Relation.Truncate, which lets go of
// the pages past the end and writes none), so a conflicting writer the
// scheduler admits next leaves the held pages as this query saw them.
// A counted page (relation.Get) is not recycled while the stream still
// holds its reference.
type resultStream struct {
	// Producer state: touched only from Exec and the engine goroutine
	// calling page, one at a time; the streamer reads the totals after
	// the scheduler has delivered the outcome.
	frame wire.ResultPage // reused for every encode
	// held is the newest page, kept back until its successor arrives
	// or the result ends: only then is its Last flag known.
	held                 *relation.Page
	pages, bytes, tuples int64
	// The engine's account of the run, for the flight record.
	dispatches, probes, builds int64

	bufs *streamBufs   // bufs.queued under mu, bufs.batch the streamer's
	mu   sync.Mutex    // guards bufs.queued, and the swap in take
	wake chan struct{} // signalled when bufs.queued goes from empty to non-empty
}

// frameQueue is a run of result frames as they go on the wire: iov
// holds each frame's head, from head, and then its page's payload, as
// the page holds it.
type frameQueue struct {
	head  []byte
	iov   net.Buffers
	pages []*relation.Page // the pages whose payloads iov holds
}

// release lets go of the queue's pages and empties it, keeping its
// memory.
func (q *frameQueue) release() {
	relation.ReleaseAll(q.pages)
	clear(q.pages)
	clear(q.iov)
	q.head, q.iov, q.pages = q.head[:0], q.iov[:0], q.pages[:0]
}

// streamBufs is the memory one result stream works in: the queue the
// producer fills and the batch the streamer writes, swapped at every
// take. A session keeps the sets of its finished streams for its next
// queries (session.spare).
type streamBufs struct {
	queued, batch frameQueue
}

func (c *session) newResultStream(qid uint32) *resultStream {
	c.imu.Lock()
	var bufs *streamBufs
	if n := len(c.spare); n > 0 {
		bufs = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		bufs = new(streamBufs)
	}
	c.imu.Unlock()
	return &resultStream{
		frame: wire.ResultPage{QueryID: qid},
		bufs:  bufs,
		wake:  make(chan struct{}, 1),
	}
}

// describe sets what the first frame says about the result relation.
func (st *resultStream) describe(name string, pageSize int, schema *relation.Schema) {
	attrs := make([]wire.SchemaAttr, schema.NumAttrs())
	for i := range attrs {
		a := schema.Attr(i)
		attrs[i] = wire.SchemaAttr{Name: a.Name, Type: uint8(a.Type), Width: uint32(a.Width)}
	}
	st.frame.Name, st.frame.PageSize, st.frame.Schema = name, uint32(pageSize), attrs
}

// page queues the next result page; it is the engine's emit. The page
// is queued, with the reference it came with, once its successor
// arrives (or finish runs); the streamer releases that reference once
// the page is written: an intermediate page then goes back to the free
// list, and a stored relation's own page drops the reference the scan
// came with.
func (st *resultStream) page(pg *relation.Page) error {
	var err error
	if st.held != nil {
		err = st.encode(st.held, false)
	}
	st.held = pg
	return err
}

// finish queues the final frame: the held page with Last set, or the
// page-less Last frame that terminates an empty result.
func (st *resultStream) finish() error {
	pg := st.held
	st.held = nil
	return st.encode(pg, true)
}

// relation queues all of rel. EachPage walks a stored relation through
// the buffer pool a run at a time (relation.EachRun), so the whole
// relation is never resident at once.
func (st *resultStream) relation(rel *relation.Relation) error {
	st.describe(rel.Name(), rel.PageSize(), rel.Schema())
	if err := rel.EachPage(st.page); err != nil {
		return fmt.Errorf("server: streaming %q: %w", rel.Name(), err)
	}
	return st.finish()
}

// encode queues pg's frame — its head, and pg with its reference — or,
// for a nil pg, the page-less frame. A frame that cannot be encoded
// queues nothing, and pg is released.
func (st *resultStream) encode(pg *relation.Page, last bool) error {
	st.frame.Seq, st.frame.Last = uint32(st.pages), last
	var src wire.PageBlob // nil, not a nil *relation.Page, for the page-less frame
	if pg != nil {
		src = pg
		st.pages++
		st.bytes += int64(pg.WireSize())
		st.tuples += int64(pg.TupleCount())
	}
	st.mu.Lock()
	q := &st.bufs.queued
	wasEmpty := len(q.iov) == 0
	at := len(q.head)
	head, err := wire.AppendResultHead(q.head, &st.frame, src)
	if err == nil {
		q.head = head
		q.iov = append(q.iov, head[at:])
		if pg != nil {
			q.iov = append(q.iov, pg.Data())
			q.pages = append(q.pages, pg)
		}
	}
	st.mu.Unlock()
	if err != nil {
		pg.Release()
		return err
	}
	if wasEmpty {
		// One wake-up per batch, not per page: while the streamer is
		// inside a write the queue stays non-empty and later pages ride
		// along with its next one.
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// take swaps the queued frames for the streamer's spent (released and
// emptied) batch.
func (st *resultStream) take() {
	b := st.bufs
	st.mu.Lock()
	b.queued, b.batch = b.batch, b.queued
	st.mu.Unlock()
}

// write applies a write root through wal.Write, with the server's log
// when it has one: the record is durable before the catalog changes and
// before any acknowledgement, and a stored relation takes no write
// without it. Must run inside the query's scheduled Exec: the job's
// write footprint is the exclusion wal.Write asks for.
func (s *Server) write(ctx context.Context, root *query.Node) (*relation.Relation, error) {
	rel, err := wal.Write(s.cfg.WAL, s.cat, root, func(src *query.Tree) (*relation.Relation, func(), error) {
		return s.engine.ExecuteScratch(ctx, src)
	})
	if err != nil {
		return nil, err
	}
	if s.cfg.WAL != nil {
		s.count("server.durable_writes", 1)
		s.maybeCheckpoint()
	}
	return rel, nil
}

// maybeCheckpoint schedules a checkpoint job once the log outgrows the
// configured threshold. The job's footprint writes every relation, so
// the scheduler runs it only when no other query is in flight — the
// quiescent instant a consistent checkpoint needs. Singleflighted: at
// most one checkpoint is queued or running.
func (s *Server) maybeCheckpoint() {
	every := s.cfg.CheckpointEvery
	if every <= 0 || s.cfg.WAL.SizeSinceCheckpoint() < every {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	job := &sched.Job{
		Session:   "wal",
		Label:     "wal/checkpoint",
		Footprint: query.Footprint{Writes: s.cat.Names()},
		Exec: func(context.Context) (any, error) {
			return nil, s.cfg.WAL.Checkpoint(s.cat)
		},
	}
	outc, err := s.sched.Submit(job)
	if err != nil {
		// Queue full or draining: drop this attempt, a later write
		// retries.
		s.ckptBusy.Store(false)
		return
	}
	go func() {
		o := <-outc
		s.ckptBusy.Store(false)
		if o.Err != nil {
			s.count("server.checkpoint_errors", 1)
			s.event(obs.EvNote, -1, "checkpoint failed: %v", o.Err)
			return
		}
		s.event(obs.EvNote, -1, "checkpoint complete (log truncated)")
	}()
}

// Checkpoint forces a WAL checkpoint through the admission scheduler
// (total write exclusion) and waits for it. No-op without a WAL.
func (s *Server) Checkpoint(ctx context.Context) error {
	if s.cfg.WAL == nil {
		return nil
	}
	job := &sched.Job{
		Session:   "wal",
		Label:     "wal/checkpoint",
		Footprint: query.Footprint{Writes: s.cat.Names()},
		Exec: func(context.Context) (any, error) {
			return nil, s.cfg.WAL.Checkpoint(s.cat)
		},
	}
	outc, err := s.sched.Submit(job)
	if err != nil {
		return err
	}
	select {
	case o := <-outc:
		return o.Err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) count(name string, delta int64) {
	if s.cfg.Obs.MetricsOn() {
		s.cfg.Obs.Registry().Inc(name, delta)
	}
}

func (s *Server) gauge(name string, v float64) {
	if s.cfg.Obs.MetricsOn() {
		s.cfg.Obs.Registry().SetGauge(name, v)
	}
}

func (s *Server) event(kind obs.EventKind, queryID int, format string, args ...any) {
	if !s.cfg.Obs.Enabled() {
		return
	}
	s.cfg.Obs.Emit(obs.Event{
		TS:    time.Since(s.start),
		Kind:  kind,
		Comp:  "server",
		Query: queryID,
		Instr: -1,
		Page:  -1,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// session is one client connection.
type session struct {
	id   int
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	name string

	wmu sync.Mutex // serializes frame writes across query streamers

	imu      sync.Mutex
	inflight int
	spare    []*streamBufs // buffers of finished result streams, at most MaxInflight

	span *obs.Span
}

func (c *session) run() {
	s := c.srv
	defer s.sessWg.Done()
	defer s.remove(c)
	defer c.conn.Close()

	if !c.handshake() {
		return
	}
	if s.cfg.Obs.SpansOn() {
		c.span = s.cfg.Obs.Spans().Begin(obs.SpanSession, nil, time.Since(s.start),
			"server", fmt.Sprintf("session %d (%s)", c.id, EngineCore), -1, -1, -1)
		defer func() {
			s.cfg.Obs.Spans().End(c.span, time.Since(s.start))
		}()
	}

	for {
		_ = c.conn.SetReadDeadline(time.Now().Add(s.cfg.SessionTimeout))
		// Wait for the first byte of the next frame separately from
		// decoding it: a deadline that fires here has consumed
		// nothing, so while results are still being computed or
		// streamed the session is not dead — the client is just quiet
		// — and it is safe to re-arm. A deadline firing inside
		// wire.Read would leave a partially consumed frame behind, and
		// re-arming then would desync the frame stream for the rest of
		// the session; that session is protocol-broken and closes.
		if _, err := c.br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && c.inflightCount() > 0 {
				continue
			}
			return // EOF or idle timeout: session over
		}
		f, err := wire.Read(c.br)
		if err != nil {
			return // torn or malformed frame: session over
		}
		q, ok := f.(*wire.Query)
		if !ok {
			c.writeFrame(&wire.Error{QueryID: wire.SessionQueryID, Code: wire.CodeProtocol,
				Msg: fmt.Sprintf("unexpected %s frame", f.Type())})
			return
		}
		if q.ID == wire.SessionQueryID {
			c.writeFrame(&wire.Error{QueryID: wire.SessionQueryID, Code: wire.CodeProtocol,
				Msg: "reserved query id"})
			return
		}
		c.handleQuery(q)
	}
}

// handshake performs the Hello exchange; false means the session must
// close.
func (c *session) handshake() bool {
	_ = c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := wire.Read(c.br)
	if err != nil {
		return false
	}
	h, ok := f.(*wire.Hello)
	if !ok {
		c.writeFrame(&wire.Error{QueryID: wire.SessionQueryID, Code: wire.CodeProtocol,
			Msg: fmt.Sprintf("handshake: got %s frame, want hello", f.Type())})
		return false
	}
	v, err := wire.Negotiate(h.Min, h.Max, wire.MinVersion, wire.Version)
	if err != nil {
		c.writeFrame(&wire.Error{QueryID: wire.SessionQueryID, Code: wire.CodeVersion, Msg: err.Error()})
		return false
	}
	if h.Engine != "" && h.Engine != EngineCore {
		c.writeFrame(&wire.Error{QueryID: wire.SessionQueryID, Code: wire.CodeProtocol,
			Msg: fmt.Sprintf("unknown engine %q", h.Engine)})
		return false
	}
	c.name = h.Name
	return c.writeFrame(&wire.Hello{Min: v, Max: v, Engine: EngineCore, Name: "dfdbm", SessionID: uint64(c.id)})
}

func (c *session) inflightCount() int {
	c.imu.Lock()
	defer c.imu.Unlock()
	return c.inflight
}

// handleQuery parses, schedules, and (in a streamer goroutine) answers
// one query.
func (c *session) handleQuery(q *wire.Query) {
	s := c.srv
	// Register with the drain barrier first, under the server lock and
	// only while not draining: Shutdown marks draining under the same
	// lock before waiting on queryWg, so the barrier can never observe
	// a zero counter while a just-received query is still on its way
	// to the scheduler (the documented WaitGroup Add/Wait race), and a
	// drain cannot close the session under a result stream that was
	// about to start. Every non-streaming return below must Done.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		c.writeFrame(&wire.Error{QueryID: q.ID, Code: wire.CodeDraining, Msg: "server is draining"})
		return
	}
	s.queryWg.Add(1)
	s.mu.Unlock()

	// One trace ID identifies this query end to end: the client's, when
	// it proposed one over the wire, otherwise server-assigned. It keys
	// the flight-recorder entry and rides back on the stats frame, so
	// client, server, and recorder all agree on which query is which.
	traceID := q.TraceID
	if traceID == 0 {
		traceID = s.traceSeq.Add(1)
	}
	arrival := time.Now()
	lane := sched.LaneFromPriority(q.Priority)
	s.flight.Start(obs.QueryRecord{
		TraceID: traceID,
		Session: uint64(c.id),
		QueryID: q.ID,
		Lane:    lane.String(),
		Engine:  EngineCore,
		Text:    q.Text,
		Start:   arrival,
	})

	c.imu.Lock()
	if c.inflight >= s.cfg.MaxInflight {
		c.imu.Unlock()
		s.queryWg.Done()
		s.count("server.queries_shed", 1)
		s.flight.Finish(traceID, obs.OutcomeShed, nil)
		c.writeFrame(&wire.Error{QueryID: q.ID, Code: wire.CodeOverloaded,
			Msg: fmt.Sprintf("session in-flight limit (%d) reached", s.cfg.MaxInflight)})
		return
	}
	c.inflight++
	c.imu.Unlock()
	release := func() {
		c.imu.Lock()
		c.inflight--
		c.imu.Unlock()
	}

	s.count("server.queries", 1)
	root, err := query.Parse(q.Text)
	if err != nil {
		release()
		s.queryWg.Done()
		s.flight.Finish(traceID, obs.OutcomeError+":"+wire.CodeParse, nil)
		c.writeFrame(&wire.Error{QueryID: q.ID, Code: wire.CodeParse, Msg: err.Error()})
		return
	}

	var qspan *obs.Span
	if s.cfg.Obs.SpansOn() {
		qspan = s.cfg.Obs.Spans().Begin(obs.SpanQuery, c.span, time.Since(s.start),
			"server", fmt.Sprintf("s%d/q%d %s", c.id, q.ID, q.Text), int(q.ID), -1, -1)
	}
	endSpan := func() {
		if qspan != nil {
			s.cfg.Obs.Spans().End(qspan, time.Since(s.start))
		}
	}

	st := c.newResultStream(q.ID)
	job := &sched.Job{
		Session:   fmt.Sprintf("s%d", c.id),
		Label:     fmt.Sprintf("s%d/q%d", c.id, q.ID),
		Lane:      lane,
		Footprint: query.Analyze(root),
		QueryID:   int(q.ID),
		Exec: func(ctx context.Context) (any, error) {
			if testExecGate != nil {
				testExecGate(ctx)
			}
			if d := s.execDelay.Load(); d > 0 {
				t := time.NewTimer(time.Duration(d))
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return nil, ctx.Err()
				}
			}
			s.flight.SetStage(traceID, obs.StageExecute)
			if qspan != nil {
				tr := s.cfg.Obs.Spans()
				stage := tr.Begin(obs.SpanStage, qspan, time.Since(s.start),
					"server", "execute", int(q.ID), -1, -1)
				defer func() { tr.End(stage, time.Since(s.start)) }()
				// The engine roots its own span tree under this stage
				// span, on the server's clock, so one query is one
				// connected tree from session down to worker bursts.
				ctx = obs.WithSpanContext(ctx, obs.SpanContext{
					Parent: stage, Epoch: s.start, Query: int(q.ID)})
			}
			// Bind inside the scheduled execution, not on the session
			// goroutine: binding reads catalog relation schemas, and a
			// running delete rewrites its target relation in place, so
			// name resolution is only safe under the same admission
			// exclusion that guards execution. The footprint needs no
			// binding — Analyze reads only relation names.
			tree, err := query.Bind(root, s.cat)
			if err != nil {
				return nil, &bindError{err}
			}
			return nil, s.answer(ctx, tree, st)
		},
	}
	submitted := time.Since(s.start)
	outc, err := s.sched.Submit(job)
	if err != nil {
		release()
		endSpan()
		s.queryWg.Done()
		code := wire.CodeOverloaded
		if errors.Is(err, sched.ErrDraining) || errors.Is(err, sched.ErrClosed) {
			code = wire.CodeDraining
		}
		s.count("server.queries_shed", 1)
		s.flight.Finish(traceID, obs.OutcomeShed, nil)
		c.writeFrame(&wire.Error{QueryID: q.ID, Code: code, Msg: err.Error()})
		return
	}

	go func() {
		defer s.queryWg.Done()
		defer release()
		defer endSpan()
		o, alive := c.stream(st, outc)
		// The scheduler's outcome is the only place the pre-execution
		// stages are measured, so the admit-wait and schedule stage
		// spans are recorded retroactively from it, back to back from
		// the submit instant.
		if qspan != nil {
			tr := s.cfg.Obs.Spans()
			tr.Record(obs.SpanStage, qspan, submitted, submitted+o.AdmitWait,
				"server", "admit-wait", int(q.ID), -1, -1)
			tr.Record(obs.SpanStage, qspan, submitted+o.AdmitWait, submitted+o.AdmitWait+o.Dispatch,
				"server", "schedule", int(q.ID), -1, -1)
		}
		if !alive {
			s.flight.Finish(traceID, obs.OutcomeError+":stream", nil)
			return
		}
		if o.Err != nil {
			code := wire.CodeExec
			var be *bindError
			switch {
			case errors.As(o.Err, &be):
				code = wire.CodeParse
			case errors.Is(o.Err, sched.ErrClosed), errors.Is(o.Err, context.Canceled):
				code = wire.CodeDraining
			}
			s.count("server.queries_failed", 1)
			s.flight.Finish(traceID, obs.OutcomeError+":"+code, func(r *obs.QueryRecord) {
				r.AdmitWait, r.Sched, r.Exec = o.AdmitWait, o.Dispatch, o.Run
				r.Total = time.Since(arrival)
				r.Deferred = o.Deferred
			})
			// Pages of the failed result may already be with the client;
			// the Error frame in place of Stats tells it to discard them.
			c.writeFrame(&wire.Error{QueryID: q.ID, Code: code, Msg: o.Err.Error()})
			return
		}
		c.finishResult(q.ID, st, o, submitted, traceID, lane, qspan, arrival)
	}()
}

// answer executes one bound query inside its scheduled Exec and queues
// the whole result on st before returning.
func (s *Server) answer(ctx context.Context, tree *query.Tree, st *resultStream) error {
	root := tree.Root()
	if root.Kind == query.OpAppend || root.Kind == query.OpDelete {
		// A write's result is the written relation, at rest.
		rel, err := s.write(ctx, root)
		if err != nil {
			return err
		}
		return st.relation(rel)
	}
	st.describe(root.Label(), s.engine.ResultPageSize(root), root.Schema())
	res, err := s.engine.ExecuteStream(ctx, tree, st.page)
	if err != nil {
		return err
	}
	st.dispatches, st.probes, st.builds = res.Stats.Dispatches, res.Stats.HashProbes, res.Stats.HashBuilds
	return st.finish()
}

// stream is the streamer's loop: write whatever the execution has
// queued, as often as it queues something, until the scheduler delivers
// the outcome; then, for a successful query, the rest. After a failed
// write (alive comes back false) it only discards, releasing the pages
// unwritten, but still waits for the outcome, which every drain, close
// and cancellation path delivers. Exec has returned by then, so the
// stream's memory goes back to the session for its next query.
func (c *session) stream(st *resultStream, outc <-chan sched.Outcome) (o sched.Outcome, alive bool) {
	b := st.bufs
	alive = true
	flush := func(write bool) {
		st.take()
		if write && alive && len(b.batch.iov) > 0 {
			alive = c.writeFrames(&b.batch)
		}
		b.batch.release()
	}
	for {
		select {
		case <-st.wake:
			flush(true)
		case o = <-outc:
			flush(o.Err == nil)
			// A failed run may leave its newest page held back.
			st.held.Release()
			st.held = nil
			c.imu.Lock()
			c.spare = append(c.spare, b)
			c.imu.Unlock()
			return o, alive
		}
	}
}

// finishResult closes a successfully streamed result: the stage
// accounting and the flight record, then the Stats frame.
func (c *session) finishResult(qid uint32, st *resultStream, o sched.Outcome,
	submitted time.Duration, traceID uint64, lane sched.Lane, qspan *obs.Span, arrival time.Time) {
	s := c.srv
	// The stream stage is what is left after execution: from the end of
	// Exec to the last result byte written. Pages that left while the
	// query ran are inside Exec, so admit-wait + sched + exec + stream
	// still adds up to no more than the server's residence time.
	execEnd := submitted + o.AdmitWait + o.Dispatch + o.Run
	streamed := max(0, time.Since(s.start)-execEnd)
	if qspan != nil {
		s.cfg.Obs.Spans().Record(obs.SpanStage, qspan, execEnd, execEnd+streamed,
			"server", "stream", int(qid), -1, -1)
	}
	s.streamHist.ObserveDuration(streamed)
	s.count("server.result_pages", st.pages)
	s.count("server.result_bytes", st.bytes)
	total := time.Since(arrival)
	s.flight.Finish(traceID, obs.OutcomeOK, func(r *obs.QueryRecord) {
		r.AdmitWait, r.Sched, r.Exec, r.Stream = o.AdmitWait, o.Dispatch, o.Run, streamed
		r.Total = total
		r.Tuples = st.tuples
		r.Pages = st.pages
		r.Deferred = o.Deferred
		r.Dispatches, r.HashProbes, r.HashBuilds = st.dispatches, st.probes, st.builds
	})
	// The Stats frame acknowledges the query, so it goes out only once
	// the flight record is finished: /queries/recent never lags a query
	// its client has seen complete.
	c.writeFrame(&wire.Stats{
		QueryID:     qid,
		Engine:      EngineCore,
		Tuples:      st.tuples,
		Pages:       st.pages,
		ResultBytes: st.bytes,
		Queued:      o.Queued,
		Exec:        o.Run,
		Deferred:    o.Deferred,
		TraceID:     traceID,
		AdmitWait:   o.AdmitWait,
		Sched:       o.Dispatch,
		Stream:      streamed,
	})
	if s.cfg.SlowQuery > 0 && total >= s.cfg.SlowQuery {
		s.count("server.slow_queries", 1)
		s.slowMu.Lock()
		fmt.Fprintf(s.cfg.SlowQueryLog,
			"dfdbm: slow query trace=%d s%d/q%d lane=%s engine=%s total=%v admit-wait=%v sched=%v exec=%v stream=%v tuples=%d\n",
			traceID, c.id, qid, lane.String(), EngineCore,
			total.Round(time.Microsecond), o.AdmitWait.Round(time.Microsecond),
			o.Dispatch.Round(time.Microsecond), o.Run.Round(time.Microsecond),
			streamed.Round(time.Microsecond), st.tuples)
		s.slowMu.Unlock()
	}
	s.event(obs.EvResult, int(qid), "s%d/q%d: %d tuples in %d pages (%s, queued %v, ran %v)",
		c.id, qid, st.tuples, st.pages, EngineCore, o.Queued.Round(time.Microsecond), o.Run.Round(time.Microsecond))
}

// writeFrames writes q's frames under the session write lock with one
// vectored write; false means the connection is gone.
func (c *session) writeFrames(q *frameQueue) bool {
	iov := q.iov // WriteTo consumes q.iov; iov keeps it for release
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.srv.cfg.SessionTimeout))
	_, err := q.iov.WriteTo(c.conn)
	q.iov = iov
	return err == nil
}

// writeFrame writes one frame under the session write lock; false
// means the connection is gone.
func (c *session) writeFrame(f wire.Frame) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.srv.cfg.SessionTimeout))
	return wire.Write(c.conn, f) == nil
}
