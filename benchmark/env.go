package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"dfdbm"
	"dfdbm/internal/relation"
	"dfdbm/internal/workload"
)

// The database is the paper's, always the same one: the benchmark's
// seed permutes operation order and nothing else, because regenerating
// the data per seed moved allocation per op by ±9 %.
const (
	dbSeed     = 1
	dbScale    = 1.0
	dbPageSize = 2048 // the CLI default

	// What `dfdbm serve` uses when given no flags.
	flightCapacity = 256
	metricsBucket  = 100 * time.Millisecond
	serverRunners  = 4
)

// expectation is what the result oracle says a read query returns.
type expectation struct {
	tuples int64
	bytes  int64
}

// env is one set-up of the system under test: database, optional data
// directory, server, sessions and the result oracle. close releases
// all of it and is safe to call on a partly built value, more than
// once, from any exit path.
type env struct {
	sp      *spec
	dataDir string

	db     *dfdbm.DB
	oracle *dfdbm.DB // private in-memory copy the serial executor runs on
	reg    *dfdbm.Metrics
	obs    *dfdbm.Observer
	wal    *dfdbm.WAL
	srv    *dfdbm.QueryServer
	sess   []*session
	host   *hostRef

	// plain is a second server over the same catalog with Config.Obs
	// nil, with its own sessions: the metrics-off comparison of a
	// traced run. Only one of the two servers is ever driven at a time.
	plain     *dfdbm.QueryServer
	plainSess []*session

	expect map[string]expectation
	// source is what one ingest append adds, as sorted encoded tuples;
	// perAppend and perRead are how many tuples one append adds to
	// stage_a and to the reader's restrict of it.
	source    []string
	perAppend int64
	perRead   int64
	// acked is the number of acknowledged appends since the last
	// acknowledged trim: what stage_a must hold after a crash.
	acked int
}

func buildDB(withStage bool) (*dfdbm.DB, error) {
	db, _, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: dbSeed, Scale: dbScale, PageSize: dbPageSize})
	if err != nil {
		return nil, err
	}
	if withStage {
		db.Put(relation.MustNew(stageRel, workload.PaperSchema(), dbPageSize))
	}
	return db, nil
}

func (e *env) walOptions() dfdbm.WALOptions {
	return dfdbm.WALOptions{
		Fsync: dfdbm.FsyncCommit,
		Obs:   e.obs,
		Heap:  &dfdbm.HeapOptions{Frames: e.sp.frames},
	}
}

// serveConfig is `dfdbm serve` with no flags, on a free port.
func (e *env) serveConfig(o *dfdbm.Observer) dfdbm.ServeConfig {
	return dfdbm.ServeConfig{
		Addr:            "127.0.0.1:0",
		Engine:          dfdbm.ServeEngineCore,
		MaxSessions:     64,
		MaxInflight:     4,
		QueueDepth:      64,
		Runners:         serverRunners,
		MaxRunners:      16,
		Workers:         4,
		IPs:             16,
		WAL:             e.wal,
		CheckpointEvery: e.sp.checkpointEvery,
		Obs:             o,
	}
}

// setUp builds everything up to, but not including, the warm-up.
// scratch is a directory the data directory may be created in.
func setUp(ctx context.Context, sp *spec, scratch string) (*env, error) {
	e := &env{sp: sp, expect: map[string]expectation{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	var err error
	if e.host, err = newHostRef(); err != nil {
		return nil, err
	}
	writes := sp.name == "ingest"
	if e.db, err = buildDB(writes); err != nil {
		return nil, err
	}
	if e.oracle, err = buildDB(writes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e.reg = dfdbm.NewMetrics(metricsBucket)
	e.obs = dfdbm.NewObserver(nil, e.reg)
	e.obs.EnableFlight(flightCapacity)

	if sp.durable {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		if e.dataDir, err = os.MkdirTemp(scratch, "data-"+sp.name+"-"); err != nil {
			return nil, err
		}
		l, recovered, _, err := dfdbm.OpenWAL(e.dataDir, e.walOptions())
		if err != nil {
			return nil, err
		}
		e.wal = l
		if recovered != nil {
			return nil, fmt.Errorf("set-up: fresh data directory %s recovered a database", e.dataDir)
		}
		// The seeding checkpoint, as `dfdbm serve -data-dir` does on a
		// fresh directory: every relation moves into its heap file.
		if err := l.Checkpoint(e.db.Catalog()); err != nil {
			return nil, fmt.Errorf("set-up: seeding checkpoint: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if e.srv, err = dfdbm.Serve(e.db, e.serveConfig(e.obs)); err != nil {
		return nil, err
	}
	if e.sess, err = dialSessions(e.srv.Addr(), sp.sessions); err != nil {
		return nil, err
	}
	if err := e.verifyDeck(ctx); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

func dialSessions(addr string, n int) ([]*session, error) {
	out := make([]*session, 0, n)
	for i := 0; i < n; i++ {
		s, err := dialSession(addr, fmt.Sprintf("bench-%d", i))
		if err != nil {
			for _, o := range out {
				o.close()
			}
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// startPlain starts the metrics-off server and its sessions.
func (e *env) startPlain() error {
	var err error
	if e.plain, err = dfdbm.Serve(e.db, e.serveConfig(nil)); err != nil {
		return err
	}
	e.plainSess, err = dialSessions(e.plain.Addr(), e.sp.sessions)
	return err
}

// stopServing ends the sessions and shuts both servers down, waiting
// for every goroutine they own. The log and the data directory stay.
func (e *env) stopServing() error {
	for _, s := range e.sess {
		s.close()
	}
	for _, s := range e.plainSess {
		s.close()
	}
	e.sess, e.plainSess = nil, nil
	var first error
	for _, srv := range []*dfdbm.QueryServer{e.srv, e.plain} {
		if srv == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	e.srv, e.plain = nil, nil
	return first
}

// closeLog closes the write-ahead log without a checkpoint: dirty
// buffer-pool frames are dropped, exactly the state a crash leaves on
// disk short of what the operating system had not yet written.
func (e *env) closeLog() error {
	if e.wal == nil {
		return nil
	}
	err := e.wal.Close()
	e.wal = nil
	return err
}

func (e *env) close() error {
	first := e.stopServing()
	if err := e.closeLog(); err != nil && first == nil {
		first = err
	}
	if e.host != nil {
		e.host.close()
		e.host = nil
	}
	if e.dataDir != "" {
		if err := os.RemoveAll(e.dataDir); err != nil && first == nil {
			first = err
		}
		e.dataDir = ""
	}
	return first
}

// verifyQueries lists what the oracle checks during set-up, in an
// order that leaves stage_a empty on both sides.
func (e *env) verifyQueries() []string {
	if e.sp.name == "ingest" {
		return []string{ingestAppend, ingestRead, ingestFree, ingestTrim}
	}
	return e.sp.deck.distinct()
}

// verifyDeck is the result oracle: every distinct query runs once
// through the public client and once through the benchmark's session,
// and both answers must equal, as multisets, what the serial reference
// executor returns on the private copy. Writes are applied to the copy
// once per path, so both databases stay in step.
func (e *env) verifyDeck(ctx context.Context) error {
	client, err := dfdbm.Dial(e.srv.Addr(), dfdbm.ClientConfig{Name: "bench-oracle"})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	defer client.Close()

	serial := func(text string) (*dfdbm.Relation, error) {
		q, err := e.oracle.Parse(text)
		if err != nil {
			return nil, err
		}
		return e.oracle.ExecuteSerial(q)
	}
	for _, text := range e.verifyQueries() {
		if err := ctx.Err(); err != nil {
			return err
		}
		want, err := serial(text)
		if err != nil {
			return fmt.Errorf("oracle: serial %s: %w", text, err)
		}
		got, err := client.Query(ctx, text)
		if err != nil {
			return fmt.Errorf("oracle: client %s: %w", text, err)
		}
		if !got.Relation.EqualMultiset(want) {
			return fmt.Errorf("oracle: %s: public client returned %d tuples, serial reference %d, or different ones",
				text, got.Relation.Cardinality(), want.Cardinality())
		}
		write := isWrite(text)
		if write {
			if want, err = serial(text); err != nil {
				return fmt.Errorf("oracle: serial %s: %w", text, err)
			}
		}
		r, err := e.sess[0].query(text, false)
		if err != nil {
			return fmt.Errorf("oracle: session %s: %w", text, err)
		}
		if !r.rel.EqualMultiset(want) {
			return fmt.Errorf("oracle: %s: benchmark session returned %d tuples, serial reference %d, or different ones",
				text, r.rel.Cardinality(), want.Cardinality())
		}
		if err := consistent(r); err != nil {
			return fmt.Errorf("oracle: %s: %w", text, err)
		}
		if !write {
			e.expect[text] = expectation{tuples: r.stats.Tuples, bytes: r.stats.ResultBytes}
		}
	}
	if e.sp.name != "ingest" {
		return nil
	}
	// Sizes the rounds check writes against.
	src, err := serial(ingestSource)
	if err != nil {
		return fmt.Errorf("oracle: serial %s: %w", ingestSource, err)
	}
	probe, err := serial(ingestProbe)
	if err != nil {
		return fmt.Errorf("oracle: serial %s: %w", ingestProbe, err)
	}
	e.source = src.SortedKeys()
	e.perAppend, e.perRead = int64(src.Cardinality()), int64(probe.Cardinality())
	if e.perAppend == 0 || e.perRead == 0 {
		return fmt.Errorf("oracle: ingest source selects %d tuples and its probe %d; both must be positive", e.perAppend, e.perRead)
	}
	return nil
}

func isWrite(text string) bool {
	return strings.HasPrefix(text, "append(") || strings.HasPrefix(text, "delete(")
}

// consistent checks a reply against itself: the relation the session
// rebuilt has the tuples, pages and bytes the Stats frame claims.
func consistent(r *reply) error {
	st := r.stats
	if int64(r.rel.Cardinality()) != st.Tuples {
		return fmt.Errorf("decoded %d tuples, stats frame says %d", r.rel.Cardinality(), st.Tuples)
	}
	if want := st.Pages*relation.PageHeaderLen + st.Tuples*int64(r.rel.Schema().TupleLen()); st.ResultBytes != want {
		return fmt.Errorf("stats frame says %d result bytes, %d pages of %d tuples make %d",
			st.ResultBytes, st.Pages, st.Tuples, want)
	}
	return nil
}

// tupleBytes is the paper schema's tuple length.
const tupleBytes = 100

// stageBytes is the wire size of stage_a holding n tuples: heap pages
// fill completely before a new one starts.
func stageBytes(n int64) int64 {
	const perPage = (dbPageSize - relation.PageHeaderLen) / tupleBytes
	pages := (n + perPage - 1) / perPage
	return pages*relation.PageHeaderLen + n*tupleBytes
}
