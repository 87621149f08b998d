package dfdbm_test

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dfdbm"
	"dfdbm/internal/heap"
)

// TestStoredReadErrorIsReturned: a page of a stored relation that fails
// its slot CRC is an error, not a panic, for the serial reference's
// operator inputs and for Save alike; such a Save writes nothing.
func TestStoredReadErrorIsReturned(t *testing.T) {
	dir := t.TempDir()
	const pageSize = 2048
	l, _, _, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: 3, Scale: 0.05, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(seed.Catalog()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, db, _, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if r1, err := db.Get("r1"); err != nil || !r1.Stored() {
		t.Fatalf("reopened r1: %v, stored %v", err, err == nil && r1.Stored())
	}

	// Flip a payload byte of r1's slot 0, which nothing has read yet.
	f, err := os.OpenFile(filepath.Join(dir, "heap", "r1.heap"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := heap.SlotOffset(pageSize, 0) + 16 + 20
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, heap.ErrCorrupt) || !strings.Contains(err.Error(), "slot 0 CRC") {
			t.Errorf("%s over a corrupt slot: %v, want the slot's CRC failure", what, err)
		}
	}
	q, err := db.Parse("restrict(r1, val < 500)")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ExecuteSerial(q)
	corrupt("ExecuteSerial", err)
	out := filepath.Join(t.TempDir(), "copy")
	corrupt("Save", db.Save(out))
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a Save that failed reading its source wrote %s: %v", out, err)
	}
}

// savedPaperDB saves a small paper database to a fresh data directory
// and returns both.
func savedPaperDB(t *testing.T) (*dfdbm.DB, string) {
	t.Helper()
	db, _, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: 7, Scale: 0.05, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	return db, dir
}

// dirImage reads every file under dir, keyed by its path within dir.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		img[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSavedDirectoryIsServable: what Save writes is a seeded data
// directory, which OpenWAL (and so serve -data-dir) recovers from its
// heap files alone.
func TestSavedDirectoryIsServable(t *testing.T) {
	db, dir := savedPaperDB(t)
	l, served, rv, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rv.Fresh || served == nil {
		t.Fatalf("OpenWAL on a saved directory: fresh %v, db %v", rv.Fresh, served)
	}
	if rv.Replayed != 0 {
		t.Errorf("OpenWAL replayed %d records, want 0", rv.Replayed)
	}
	if got, want := served.Names(), db.Names(); !slices.Equal(got, want) {
		t.Fatalf("served relations %v, want %v", got, want)
	}
	for _, name := range db.Names() {
		want, _ := db.Get(name)
		got, _ := served.Get(name)
		if !got.Stored() || got.Cardinality() != want.Cardinality() {
			t.Errorf("%s: stored %v, %d tuples; want stored, %d", name, got.Stored(), got.Cardinality(), want.Cardinality())
		}
	}
}

// TestOpenDBReplaysLogTail: an append a WAL-backed server acknowledged
// but never checkpointed is in the database OpenDB returns, exactly as
// the server held it.
func TestOpenDBReplaysLogTail(t *testing.T) {
	_, dir := savedPaperDB(t)
	l, served, _, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := served.Get("r15")
	n := before.Cardinality()
	srv, err := dfdbm.Serve(served, dfdbm.ServeConfig{Addr: "127.0.0.1:0", WAL: l, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dfdbm.Dial(srv.Addr(), dfdbm.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), `append(r15, restrict(r1, val < 150))`); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	live, _ := served.Get("r15")
	if live.Cardinality() == n {
		t.Fatal("the append moved nothing")
	}
	want := pageImages(t, live)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := dfdbm.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("r15")
	if !slices.EqualFunc(pageImages(t, got), want, bytes.Equal) {
		t.Errorf("OpenDB's r15 holds %d tuples, the server's %d (%d before the append)", got.Cardinality(), live.Cardinality(), n)
	}
}

// TestSaveLeavesDBResident: after Save the database still answers
// queries and takes writes in memory, the directory does not follow
// them, and a second Save into it is refused.
func TestSaveLeavesDBResident(t *testing.T) {
	db, dir := savedPaperDB(t)
	saved := dirImage(t, dir)
	q, err := db.Parse(`restrict(r1, val < 150)`)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := db.ExecuteSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	r15, _ := db.Get("r15")
	n := r15.Cardinality()
	app, err := db.Parse(`append(r15, restrict(r1, val < 150))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(app, dfdbm.EngineOptions{}); err != nil {
		t.Fatal(err)
	}
	if r15.Stored() || r15.Cardinality() != n+sel.Cardinality() {
		t.Errorf("r15 after the append: stored %v, %d tuples, want resident with %d", r15.Stored(), r15.Cardinality(), n+sel.Cardinality())
	}
	if err := db.Save(dir); err == nil || !strings.Contains(err.Error(), "already holds a database") {
		t.Errorf("Save over a saved directory: %v, want a refusal", err)
	}
	if !maps.EqualFunc(dirImage(t, dir), saved, bytes.Equal) {
		t.Error("the saved directory changed after Save returned")
	}
}

// TestOpenDBRefusesNonDatabase: a regular file (the retired single-file
// format) and an empty directory are refused, and left as they were.
func TestOpenDBRefusesNonDatabase(t *testing.T) {
	parent := t.TempDir()
	file := filepath.Join(parent, "old.dfdbm")
	if err := os.WriteFile(file, []byte("DFDBM2\n\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(parent, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, parent)
	if _, err := dfdbm.OpenDB(file); err == nil || !strings.Contains(err.Error(), "single-file DFDBM2 databases are no longer read") {
		t.Errorf("OpenDB of a file: %v, want the single-file refusal", err)
	}
	if _, err := dfdbm.OpenDB(empty); err == nil || !strings.Contains(err.Error(), "no heap manifest") {
		t.Errorf("OpenDB of an empty directory: %v, want a refusal naming the missing manifest", err)
	}
	if !maps.EqualFunc(dirImage(t, parent), before, bytes.Equal) {
		t.Error("a refused OpenDB changed a file")
	}
	if ents, err := os.ReadDir(empty); err != nil || len(ents) != 0 {
		t.Errorf("a refused OpenDB wrote into the empty directory: %v %v", ents, err)
	}
}

// TestHeapStoredRelationTakesWritesOnlyThroughWAL: a stored relation
// takes no write the log has not seen. On a database OpenWAL recovered,
// with a two-frame pool whose evictions write dirty pages back, an
// append or a delete run by Execute, by ExecuteSerial, or by a server
// given no WAL is refused and changes nothing: not the log, not the
// relation in memory, and not what a reopen finds.
func TestHeapStoredRelationTakesWritesOnlyThroughWAL(t *testing.T) {
	_, dir := savedPaperDB(t)
	opts := dfdbm.WALOptions{Heap: &dfdbm.HeapOptions{Frames: 2}}
	l, db, _, err := dfdbm.OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	r15, err := db.Get("r15")
	if err != nil || !r15.Stored() {
		t.Fatalf("r15: %v, stored %v", err, err == nil && r15.Stored())
	}
	want, lsn := pageImages(t, r15), l.LastLSN()
	unchanged := func(when string, r *dfdbm.Relation) {
		t.Helper()
		if got := pageImages(t, r); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("%s r15 holds %d tuples in %d pages, want %d pages unchanged", when, r.Cardinality(), len(got), len(want))
		}
	}

	srv, err := dfdbm.Serve(db, dfdbm.ServeConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dfdbm.Dial(srv.Addr(), dfdbm.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{`append(r15, restrict(r1, val < 150))`, `delete(r15, val < 150)`} {
		q, err := db.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Execute(q, dfdbm.EngineOptions{}); err == nil || !strings.Contains(err.Error(), "WAL") {
			t.Errorf("Execute of %s: %v, want a refusal naming the WAL", text, err)
		}
		if _, err := db.ExecuteSerial(q); err == nil || !strings.Contains(err.Error(), "WAL") {
			t.Errorf("ExecuteSerial of %s: %v, want a refusal naming the WAL", text, err)
		}
		if _, err := c.Query(context.Background(), text); err == nil {
			t.Errorf("a server with no WAL acknowledged %s", text)
		}
	}
	c.Close()
	srv.Close()

	unchanged("in memory,", r15)
	if got := l.LastLSN(); got != lsn {
		t.Errorf("the log moved from LSN %d to %d", lsn, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, db, _, err = dfdbm.OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reopened, err := db.Get("r15")
	if err != nil {
		t.Fatal(err)
	}
	unchanged("after reopen,", reopened)
}

// TestWritePathsMatchSerial: every way a query writes a relation is the
// one write path, so appends and deletes on the paper database leave the
// destination's pages as the serial reference executor leaves them on a
// copy of the same catalog — through DB.Execute, through a server with no
// WAL, and through a WAL server, live and again after the log is closed
// and the directory reopened. With a bare-scan source the pages are
// byte-identical. A restrict source reaches the engine's result in
// another tuple order than the serial executor's (its compressor moves
// page tails), so past it the pages must match in count, in tuples per
// page, and in tuples as a multiset.
func TestWritePathsMatchSerial(t *testing.T) {
	_, dir := savedPaperDB(t)
	writes := []struct {
		text  string
		exact bool
	}{
		{`append(r15, r2)`, true},
		{`delete(r15, val < 150)`, true},
		{`append(r15, restrict(r1, val < 300))`, false},
		{`delete(r15, val < 200)`, false},
		{`delete(r15, val >= 0)`, true},
		{`append(r15, r2)`, true},
	}
	open := func() *dfdbm.DB {
		t.Helper()
		db, err := dfdbm.OpenDB(dir)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	type state struct {
		images [][]byte
		counts []int
		keys   []string
	}
	r15 := func(db *dfdbm.DB) state {
		t.Helper()
		r, err := db.Get("r15")
		if err != nil {
			t.Fatal(err)
		}
		st := state{images: pageImages(t, r), keys: r.SortedKeys()}
		for i := 0; i < r.NumPages(); i++ {
			st.counts = append(st.counts, r.PageTuples(i))
		}
		return st
	}
	parse := func(db *dfdbm.DB, text string) *dfdbm.Query {
		t.Helper()
		q, err := db.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	ref := open()
	var want []state
	for _, w := range writes {
		if _, err := ref.ExecuteSerial(parse(ref, w.text)); err != nil {
			t.Fatal(err)
		}
		want = append(want, r15(ref))
	}
	for i := 1; i < len(want); i++ {
		if slices.Equal(want[i].keys, want[i-1].keys) {
			t.Fatalf("%s changed nothing: the test measures nothing", writes[i].text)
		}
	}
	check := func(how string, step int, got state) {
		t.Helper()
		w := want[step]
		same := slices.Equal(got.counts, w.counts) && slices.Equal(got.keys, w.keys)
		if writes[step].exact {
			same = slices.EqualFunc(got.images, w.images, bytes.Equal)
		}
		if !same {
			t.Errorf("%s after %s: r15's pages (%d, %d tuples) differ from the serial reference's (%d, %d tuples)",
				how, writes[step].text, len(got.counts), len(got.keys), len(w.counts), len(w.keys))
		}
	}

	db := open()
	for i, w := range writes {
		if _, err := db.Execute(parse(db, w.text), dfdbm.EngineOptions{}); err != nil {
			t.Fatal(err)
		}
		check("DB.Execute", i, r15(db))
	}

	// serve sends writes[from:to] to a server over db.
	serve := func(how string, db *dfdbm.DB, l *dfdbm.WAL, from, to int) {
		t.Helper()
		srv, err := dfdbm.Serve(db, dfdbm.ServeConfig{Addr: "127.0.0.1:0", WAL: l, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := dfdbm.Dial(srv.Addr(), dfdbm.ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := from; i < to; i++ {
			if _, err := c.Query(context.Background(), writes[i].text); err != nil {
				t.Fatal(err)
			}
			check(how, i, r15(db))
		}
	}
	serve("a server with no WAL", open(), nil, 0, len(writes))

	// The WAL server's directory is closed and reopened after each write.
	for i := range writes {
		l, stored, _, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{Heap: &dfdbm.HeapOptions{Frames: 4}})
		if err != nil {
			t.Fatal(err)
		}
		serve("a WAL server", stored, l, i, i+1)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		check("a WAL server, reopened,", i, r15(open()))
	}
}
