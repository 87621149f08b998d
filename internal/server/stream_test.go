package server

import (
	"bufio"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dfdbm/internal/core"
	"dfdbm/internal/heap"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
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
	s.mu.Lock()
	stalled := 0
	for _, sess := range s.sessions {
		if sess.name == "raw" {
			stalled = sess.inflightCount()
		}
	}
	s.mu.Unlock()
	if stalled != 1 {
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

// TestResultStreamEncodesIntoWarmChunks: once the server's free list
// holds the chunks a result needs, encoding that result — a megabyte of
// pages here — allocates nothing: no buffer grows, and taking and
// releasing the batch reuses the streamer's slices. That holds for a
// stored relation's 2 KB pages, for intermediate pages of the engine's
// serving size, and for a database of 64 KiB base pages streamed by a
// bare scan: a frame of any of them fits a recycled chunk.
func TestResultStreamEncodesIntoWarmChunks(t *testing.T) {
	cat, _ := testDB(t, 0.1)
	s := startServer(t, cat, Config{})
	r1, err := cat.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	// r1's tuples again, in pages of the serving size from the page free
	// list, as the engine emits them.
	get := func() *relation.Page {
		pg, err := relation.Get(core.DefaultPageSize, r1.Schema().TupleLen())
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	var served []*relation.Page
	pg := get()
	for _, src := range r1.Pages() {
		src.EachRaw(func(raw []byte) bool {
			if pg.Full() {
				served = append(served, pg)
				pg = get()
			}
			if err := pg.AppendRaw(raw); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	served = append(served, pg)
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
			var batch [][]byte
			var encoded int64
			result := func() {
				for st.bytes = 0; st.bytes < 1<<20; {
					for _, pg := range tc.pages {
						pg.Retain() // the stream releases each page it has encoded
						if err := st.page(pg); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := st.finish(); err != nil {
					t.Fatal(err)
				}
				batch = st.take(batch)
				encoded = 0
				for _, chunk := range batch {
					if cap(chunk) != chunkSize {
						t.Fatalf("a %d-byte chunk in a stream of %d-byte pages, want %d", cap(chunk), pageSize, chunkSize)
					}
					encoded += int64(len(chunk))
				}
				s.chunks.put(batch)
			}
			result() // buys the chunks, and the first of the two batch slices
			if allocs := testing.AllocsPerRun(1, result); allocs != 0 {
				t.Errorf("encoding a warm %d-byte result of %d-byte pages allocated %.0f times, want 0", encoded, pageSize, allocs)
			}
			if encoded < 1<<20 {
				t.Errorf("result was %d bytes encoded, the test means to encode a megabyte", encoded)
			}
		})
	}
}

// TestStalledResultLeavesOnlyTheChunkCap: a 10 MB result to a client
// that stops reading is held whole, in chunks — the query does not wait
// for the client (TestStalledClientDoesNotBlockWriter) — but once the
// client has resumed and read it, what stays behind is the server's
// free list at no more than its fixed cap; a session has no buffers of
// its own to keep.
func TestStalledResultLeavesOnlyTheChunkCap(t *testing.T) {
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
	const capBytes = maxFreeChunks * chunkSize
	if stats.ResultBytes < 2*capBytes {
		t.Fatalf("result is %d bytes; the test needs one well over the %d-byte cap", stats.ResultBytes, capBytes)
	}
	// The streamer released its last batch before it wrote the Stats
	// frame just read.
	s.chunks.mu.Lock()
	defer s.chunks.mu.Unlock()
	held := 0
	for _, chunk := range s.chunks.free {
		held += cap(chunk)
	}
	if held > capBytes {
		t.Errorf("idle server holds %d bytes of chunks after a %d-byte result, cap is %d", held, stats.ResultBytes, capBytes)
	}
	if held == 0 {
		t.Error("idle server kept no chunk at all: results are not being encoded into recycled memory")
	}
}
