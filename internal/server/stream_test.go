package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
	"dfdbm/internal/heap"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/sched"
	"dfdbm/internal/wal"
	"dfdbm/internal/wire"
	"dfdbm/internal/workload"
)

// rawSession is a hand-driven wire session: the tests below need to
// see (and to stop reading) individual result frames, which Client
// hides behind whole results.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	next uint32
}

// dialRaw opens a session; readBuf > 0 fixes the socket's receive
// buffer at that size (no autotuning), so a client that stops reading
// stalls the server's writes after that much plus the server's own
// send buffer.
func dialRaw(t *testing.T, addr string, readBuf int) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if readBuf > 0 {
		if err := conn.(*net.TCPConn).SetReadBuffer(readBuf); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	r := &rawSession{t: t, conn: conn, br: bufio.NewReader(conn)}
	if err := wire.Write(conn, &wire.Hello{Min: wire.MinVersion, Max: wire.Version, Name: "raw"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.read().(*wire.Hello); !ok {
		t.Fatal("handshake: no hello reply")
	}
	return r
}

func (r *rawSession) send(text string) uint32 {
	r.t.Helper()
	id := r.next
	r.next++
	if err := wire.Write(r.conn, &wire.Query{ID: id, Priority: 1, Text: text}); err != nil {
		r.t.Fatal(err)
	}
	return id
}

func (r *rawSession) read() wire.Frame {
	r.t.Helper()
	f, err := wire.Read(r.br)
	if err != nil {
		r.t.Fatalf("reading a frame: %v", err)
	}
	return f
}

// tuplesIn decodes a result frame's page.
func (r *rawSession) tuplesIn(f *wire.ResultPage) int64 {
	r.t.Helper()
	if len(f.Page) == 0 {
		return 0
	}
	pg, err := relation.UnmarshalPage(f.Page)
	if err != nil {
		r.t.Fatal(err)
	}
	return int64(pg.TupleCount())
}

// drain reads one query's answer from frame seq to its end: the result
// pages seen, their tuples, and the closing Stats or Error frame.
func (r *rawSession) drain(id uint32, seq int) (pages int, tuples int64, stats *wire.Stats, rerr *wire.Error) {
	r.t.Helper()
	for {
		switch f := r.read().(type) {
		case *wire.ResultPage:
			if f.QueryID != id || f.Seq != uint32(seq+pages) {
				r.t.Fatalf("result frame for query %d seq %d, want %d/%d", f.QueryID, f.Seq, id, seq+pages)
			}
			pages++
			tuples += r.tuplesIn(f)
		case *wire.Stats:
			return pages, tuples, f, nil
		case *wire.Error:
			return pages, tuples, nil, f
		default:
			r.t.Fatalf("unexpected %s frame", f.Type())
		}
	}
}

// TestStalledClientDoesNotBlockWriter: a client that stops reading in
// the middle of a large result leaves the server with megabytes it
// cannot send, but the query's execution — and with it its admission
// slot — must not wait for them: a writer conflicting with the stalled
// query's read set is admitted and acknowledged. When the reader
// resumes it receives the complete result as of before that write.
func TestStalledClientDoesNotBlockWriter(t *testing.T) {
	cat, _ := testDB(t, 0.3)
	// ~50,000 tuples of 200 bytes: more than the kernel buffers between
	// a server and a client that is not reading.
	const big = `join(r1, r2, k1 = k1)`
	tree, err := query.Bind(query.MustParse(big), cat)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := query.ExecuteSerial(cat, tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(ref.Cardinality())
	if want*200 < 8<<20 {
		t.Fatalf("result is only %d tuples; the test needs one that overflows the socket buffers", want)
	}
	s := startServer(t, cat, Config{})

	reader := dialRaw(t, s.Addr(), 256<<10)
	id := reader.send(big)
	first, ok := reader.read().(*wire.ResultPage)
	if !ok || first.Seq != 0 {
		t.Fatal("no first result page")
	}
	// The reader now stops. The first page arrived while the join was
	// still running or just after; either way the writer below needs r1
	// exclusively and can only be admitted once the reader's job has
	// left the running set.
	writer, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := writer.Query(ctx, `append(r1, restrict(r3, val < 50))`); err != nil {
		t.Fatalf("conflicting writer behind a stalled reader: %v", err)
	}

	// The writer is done and the reader's result is still on its way
	// out: the stall was real, not absorbed by the kernel.
	if stalled := reader.inflight(s); stalled != 1 {
		t.Errorf("reader's session has %d queries in flight after the write, want 1: its result did not outlast the socket buffers", stalled)
	}
	pages, tuples, stats, rerr := reader.drain(id, 1)
	if rerr != nil {
		t.Fatalf("stalled reader's query failed: %s: %s", rerr.Code, rerr.Msg)
	}
	pages, tuples = pages+1, tuples+reader.tuplesIn(first)
	if tuples != want || stats.Tuples != want {
		t.Errorf("reader decoded %d tuples, stats frame says %d; the join before the write has %d", tuples, stats.Tuples, want)
	}
	if stats.Pages != int64(pages) {
		t.Errorf("stats frame says %d pages, the reader saw %d", stats.Pages, pages)
	}
}

// TestEngineFailureAfterFirstPage: when the engine fails with part of
// the result already sent — here a stored relation whose fifteenth
// page fails its checksum under a bare scan — the client gets one
// Error frame in place of Stats, and the session carries on.
func TestEngineFailureAfterFirstPage(t *testing.T) {
	dir := t.TempDir()
	l, cat := openDurable(t, dir, wal.Options{Heap: &wal.HeapOptions{Frames: 4}})
	defer l.Close()
	r1, err := cat.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	const badPage = 14
	if !r1.Stored() || r1.NumPages() <= badPage {
		t.Fatalf("r1 stored=%v with %d pages; the test needs a heap file of more than %d", r1.Stored(), r1.NumPages(), badPage)
	}
	// Byte 20 of a slot lies in its page blob, past the 16-byte slot
	// header.
	f, err := os.OpenFile(filepath.Join(dir, "heap", "r1.heap"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := heap.SlotOffset(r1.PageSize(), badPage) + 20
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1})
	c := dialRaw(t, s.Addr(), 0)
	// Cycle the four frames through another relation so no page of r1
	// is served from memory.
	if _, _, _, rerr := c.drain(c.send(`restrict(r2, val < 1000)`), 0); rerr != nil {
		t.Fatalf("warm-up query: %s: %s", rerr.Code, rerr.Msg)
	}

	// The scan emits pages 0..13 before it fails; the last of them is
	// still held back for its Last flag, and what the streamer had not
	// written when the failure arrived is dropped — the engine does not
	// wait for the client, so how long a prefix the client sees is up to
	// the scheduler. Every attempt must end in one Error frame on a
	// session that still works; one of them must get there with pages
	// already delivered.
	sawPages := false
	for attempt := 0; attempt < 50 && !sawPages; attempt++ {
		pages, _, stats, rerr := c.drain(c.send(`r1`), 0)
		if rerr == nil {
			t.Fatalf("scan over a corrupt page succeeded (%d pages, stats %+v)", pages, stats)
		}
		if rerr.Code != wire.CodeExec {
			t.Fatalf("error code %q, want %q", rerr.Code, wire.CodeExec)
		}
		if pages >= badPage {
			t.Fatalf("client saw %d result pages, but the scan fails reading page %d", pages, badPage)
		}
		sawPages = pages > 0
	}
	if !sawPages {
		t.Error("no failing scan delivered a page before its error; the failure-after-first-page path was not exercised")
	}

	pages, tuples, stats, rerr := c.drain(c.send(`restrict(r2, val < 100)`), 0)
	if rerr != nil {
		t.Fatalf("query after a failed one: %s: %s", rerr.Code, rerr.Msg)
	}
	if stats.Tuples != tuples || stats.Pages != int64(pages) {
		t.Errorf("stats frame says %d tuples in %d pages, decoded %d in %d", stats.Tuples, stats.Pages, tuples, pages)
	}
}

// servingPages is n pages of the engine's serving size from the page
// free list, filled with rel's tuples in turn, as the engine emits them;
// each comes with one reference, the caller's.
func servingPages(t *testing.T, rel *relation.Relation, n int) []*relation.Page {
	t.Helper()
	var out []*relation.Page
	var pg *relation.Page
	for len(out) < n {
		rel.EachRaw(func(raw []byte) bool {
			if pg == nil || pg.Full() {
				if len(out) == n {
					return false
				}
				var err error
				if pg, err = relation.Get(core.DefaultPageSize, rel.Schema().TupleLen()); err != nil {
					t.Fatal(err)
				}
				out = append(out, pg)
			}
			if err := pg.AppendRaw(raw); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	return out
}

// TestResultStreamQueuesWarmPages: once a stream's buffers have held a
// result, queueing and taking that result again — a megabyte of pages
// here — allocates nothing: each frame's head goes into the reused head
// buffer and its page is queued by reference, not copied. That holds
// for a stored relation's 2 KB pages, for intermediate pages of the
// engine's serving size, and for a database of 64 KiB base pages
// streamed by a bare scan.
func TestResultStreamQueuesWarmPages(t *testing.T) {
	cat, _ := testDB(t, 0.1)
	s := startServer(t, cat, Config{})
	r1, err := cat.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	served := servingPages(t, r1, 4)
	defer relation.ReleaseAll(served)
	// The same relation in a database of 64 KiB base pages (dfdbm
	// -pagesize 65536), whose bare scan streams its stored pages as they
	// are.
	bigCat, _, err := workload.Build(workload.Config{Seed: 42, Scale: 0.1, PageSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	bigR1, err := bigCat.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		pages []*relation.Page
	}{
		{"2 KB stored pages", r1.Pages()},
		{"serving-size intermediate pages", served},
		{"64 KiB stored pages", bigR1.Pages()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pageSize := tc.pages[0].PageSize()
			st := (&session{srv: s}).newResultStream(1)
			st.describe(r1.Name(), pageSize, r1.Schema())
			var queued int64
			result := func() {
				for st.bytes = 0; st.bytes < 1<<20; {
					for _, pg := range tc.pages {
						pg.Retain() // the streamer releases each page it has taken
						if err := st.page(pg); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := st.finish(); err != nil {
					t.Fatal(err)
				}
				st.take()
				b := &st.bufs.batch
				queued = int64(len(b.head))
				for i, pg := range b.pages {
					if want := tc.pages[i%len(tc.pages)]; pg != want && pg != nil {
						t.Fatalf("frame %d queues page %p, want the page handed in, %p", i, pg, want)
					}
					queued += int64(len(pg.Data()))
				}
				b.release()
			}
			result() // grows the buffers, on both sides of the swap
			result()
			if allocs := testing.AllocsPerRun(1, result); allocs != 0 {
				t.Errorf("queueing a warm %d-byte result of %d-byte pages allocated %.0f times, want 0", queued, pageSize, allocs)
			}
			if queued < 1<<20 {
				t.Errorf("result was %d bytes queued, the test means to queue a megabyte", queued)
			}
		})
	}
}

// TestStalledResultPagesComeBack: a 10 MB result to a client that stops
// reading is held whole, as pages — the query does not wait for the
// client (TestStalledClientDoesNotBlockWriter) — but once the client
// has resumed and read it, its pages are back: the free list is full up
// to its budget and no fuller, keeping 4 MiB of the result at the
// default budget and dropping the rest. (TestHeldPagesComeBackOnce
// counts the pages one by one.)
func TestStalledResultPagesComeBack(t *testing.T) {
	cat, _ := testDB(t, 0.3)
	s := startServer(t, cat, Config{})
	reader := dialRaw(t, s.Addr(), 256<<10)
	id := reader.send(`join(r1, r2, k1 = k1)`)
	first, ok := reader.read().(*wire.ResultPage)
	if !ok || first.Seq != 0 {
		t.Fatal("no first result page")
	}
	// The reader now stops until the query has left the scheduler: its
	// whole result is then queued behind a socket that took a fraction.
	for deadline := time.Now().Add(20 * time.Second); s.sched.RunningCount() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the query did not finish while its client was stalled")
		}
	}
	_, _, stats, rerr := reader.drain(id, 1)
	if rerr != nil {
		t.Fatalf("stalled reader's query failed: %s: %s", rerr.Code, rerr.Msg)
	}
	if stats.ResultBytes < 8<<20 {
		t.Fatalf("result is %d bytes; the test needs one that outlasts the socket buffers", stats.ResultBytes)
	}
	// The streamer released its last batch before it wrote the Stats
	// frame just read.
	if free, budget := relation.PageStats().FreeBytes, relation.PageBudget(); free > budget || free <= min(budget, stats.ResultBytes)-core.DefaultPageSize {
		t.Errorf("idle server's free list holds %d bytes after a %d-byte result, want its budget of %d less under one page",
			free, stats.ResultBytes, budget)
	}
}

// TestHeldPagesComeBackOnce: every page a stream queues is released
// exactly once — once written to a client that reads it all, and also
// unwritten: when the client disconnects mid-stream, and when the query
// fails after pages were queued, the newest still held back for its
// Last flag. A second release panics, and a page's last release empties
// it. The stream's buffers then go back to the session for its next
// query.
func TestHeldPagesComeBackOnce(t *testing.T) {
	cat, _ := testDB(t, 0.1)
	s := startServer(t, cat, Config{})
	r1, err := cat.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// disconnect has the client read part of the first frame and
		// hang up; fail has the query fail, and the streamer start only
		// once that outcome is in, so it finds the pages queued and writes
		// none of them.
		disconnect, fail bool
	}{
		{"client reads it all", false, false},
		{"client disconnects mid-stream", true, false},
		{"query fails after pages were queued", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvEnd, cliEnd := net.Pipe()
			defer cliEnd.Close()
			c := &session{srv: s, conn: srvEnd}
			st := c.newResultStream(1)
			st.describe(r1.Name(), core.DefaultPageSize, r1.Schema())
			outc := make(chan sched.Outcome, 1)
			alive := make(chan bool)
			stream := func() {
				_, ok := c.stream(st, outc)
				srvEnd.Close()
				alive <- ok
			}
			if !tc.fail {
				go stream()
			}
			queue := func(pages []*relation.Page) {
				for _, pg := range pages {
					if err := st.page(pg); err != nil {
						t.Fatal(err)
					}
				}
			}
			pages := servingPages(t, r1, 6)
			queue(pages[:2]) // the first is queued, the second held back
			copied := make(chan int64, 1)
			if tc.disconnect {
				var b [100]byte
				if _, err := io.ReadFull(cliEnd, b[:]); err != nil {
					t.Fatal(err)
				}
				cliEnd.Close()
				copied <- int64(len(b))
			} else {
				go func() {
					n, _ := io.Copy(io.Discard, cliEnd)
					copied <- n
				}()
			}
			queue(pages[2:])
			if tc.fail {
				<-st.wake
				outc <- sched.Outcome{Err: errors.New("engine failed")}
				go stream()
			} else {
				if err := st.finish(); err != nil {
					t.Fatal(err)
				}
				outc <- sched.Outcome{}
			}
			if got := <-alive; got == tc.disconnect {
				t.Errorf("stream came back alive=%v", got)
			}
			if n := <-copied; tc.fail && n != 0 {
				t.Errorf("the client read %d bytes of a result that failed before the streamer started", n)
			}
			for i, pg := range pages {
				if pg.TupleCount() != 0 {
					t.Errorf("page %d of %d was never released", i, len(pages))
				}
			}
			if next := c.newResultStream(2); next.bufs != st.bufs || len(next.bufs.queued.iov)+len(next.bufs.batch.iov) != 0 {
				t.Error("the session's next stream did not get the finished stream's emptied buffers")
			}
		})
	}
}

// heldPageDB is a catalog with one relation a bare scan cannot push
// through the socket buffers of a stalled client: r1 of about 9.7 MB in
// 2 KB pages, and a small r3 to append from.
func heldPageDB(t *testing.T) *catalog.Catalog {
	t.Helper()
	big, _, err := workload.Build(workload.Config{Seed: 42, Scale: 12, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	small, _ := testDB(t, 0.3)
	r1, err := big.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := small.Get("r3")
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(r1)
	cat.Put(r3)
	return cat
}

// pageImages is rel's pages in wire form, back to back, and their count.
func pageImages(t *testing.T, rel *relation.Relation) ([]byte, int) {
	t.Helper()
	var buf []byte
	n := 0
	if err := rel.EachPage(func(pg *relation.Page) error {
		buf = append(buf, pg.Marshal()...)
		pg.Release()
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return buf, n
}

// drainImages reads one query's answer from its first frame on and
// returns its page blobs back to back and its closing Stats frame.
func (r *rawSession) drainImages(id uint32, first *wire.ResultPage) ([]byte, int, *wire.Stats) {
	r.t.Helper()
	blobs, pages := append([]byte(nil), first.Page...), 1
	for {
		switch f := r.read().(type) {
		case *wire.ResultPage:
			if f.QueryID != id || f.Seq != uint32(pages) {
				r.t.Fatalf("result frame for query %d seq %d, want %d/%d", f.QueryID, f.Seq, id, pages)
			}
			blobs = append(blobs, f.Page...)
			pages++
		case *wire.Stats:
			return blobs, pages, f
		case *wire.Error:
			r.t.Fatalf("query %d failed: %s: %s", id, f.Code, f.Msg)
		default:
			r.t.Fatalf("unexpected %s frame", f.Type())
		}
	}
}

// TestHeldPageIsNeverWritten: a result still on its way to a stalled
// client is the relation as its query left it. A bare scan streams the
// relation's own pages and a write answers with the written relation;
// a conflicting delete and then an append on that relation, admitted
// once the query has left the scheduler, must change no byte the client
// has yet to read — on a server in memory, and on one whose buffer pool
// of four frames evicts and refills its frames under the stream.
func TestHeldPageIsNeverWritten(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		query   string
	}{
		{"in memory", false, `r1`},
		{"4-frame buffer pool", true, `r1`},
		{"a write's own answer", false, `append(r1, restrict(r3, val < 50))`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := heldPageDB(t)
			cfg := Config{}
			if tc.durable {
				l, _, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.FsyncNone, Heap: &wal.HeapOptions{Frames: 4}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				if err := l.Checkpoint(cat); err != nil {
					t.Fatal(err)
				}
				cfg = Config{WAL: l, CheckpointEvery: -1}
			}
			s := startServer(t, cat, cfg)
			r1, err := cat.Get("r1")
			if err != nil {
				t.Fatal(err)
			}

			reader := dialRaw(t, s.Addr(), 256<<10)
			id := reader.send(tc.query)
			first, ok := reader.read().(*wire.ResultPage)
			if !ok || first.Seq != 0 {
				t.Fatal("no first result page")
			}
			// The reader stops until its query has left the scheduler;
			// r1 is then what the query answers with, and nothing writes
			// it until the writer below.
			for deadline := time.Now().Add(20 * time.Second); s.sched.RunningCount() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the query did not finish while its client was stalled")
				}
			}
			want, wantPages := pageImages(t, r1)

			writer, err := Dial(s.Addr(), ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer writer.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			before := r1.Cardinality()
			if _, err := writer.Query(ctx, `delete(r1, val < 500)`); err != nil {
				t.Fatalf("delete behind a stalled reader: %v", err)
			}
			if r1.Cardinality() == before {
				t.Fatal("the delete removed nothing; the test means to rewrite r1")
			}
			if _, err := writer.Query(ctx, `append(r1, restrict(r3, val < 50))`); err != nil {
				t.Fatalf("append behind a stalled reader: %v", err)
			}
			if n := reader.inflight(s); n != 1 {
				t.Fatalf("reader's session has %d queries in flight after the writes, want 1: its result did not outlast the socket buffers", n)
			}

			got, pages, stats := reader.drainImages(id, first)
			if pages != wantPages || stats.Pages != int64(wantPages) {
				t.Errorf("reader got %d pages, stats frame says %d; r1 had %d", pages, stats.Pages, wantPages)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("the %d bytes streamed differ from r1's %d as the query left it", len(got), len(want))
			}
		})
	}
}

// inflight is the number of queries the raw session has in flight on s.
func (r *rawSession) inflight(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		if sess.name == "raw" {
			return sess.inflightCount()
		}
	}
	return 0
}
