package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
	"dfdbm/internal/wal"
)

// catBytes is the byte-identity yardstick: each relation's name,
// schema, page size and page images, in name order. Two catalogs hold
// the same state iff their images match.
func catBytes(t *testing.T, c *catalog.Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range c.Names() {
		r, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s %d\n", name, r.Schema(), r.PageSize())
		if err := r.EachPage(func(pg *relation.Page) error {
			buf.Write(pg.Marshal())
			pg.Release()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// openDurable opens a WAL in dir, seeds it with the test database when
// fresh, and returns the log plus the catalog the server should run.
func openDurable(t *testing.T, dir string, opts wal.Options) (*wal.Log, *catalog.Catalog) {
	t.Helper()
	l, cat, _, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cat == nil {
		cat, _ = testDB(t, 0.05)
		if err := l.Checkpoint(cat); err != nil {
			t.Fatal(err)
		}
	}
	return l, cat
}

// TestDurableWritesRecover drives appends and a delete through a
// WAL-backed server, then recovers the directory cold and checks the
// recovered catalog is byte-identical to the live one — the acceptance
// bar for the durable write path.
func TestDurableWritesRecover(t *testing.T) {
	dir := t.TempDir()
	l, cat := openDurable(t, dir, wal.Options{})
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	writes := []string{
		`append(r15, restrict(r1, val < 100))`,
		`append(r14, restrict(r2, val < 200))`,
		`delete(r15, val < 50)`,
	}
	for _, q := range writes {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// The read path still serves after durable writes.
	res, err := c.Query(context.Background(), `restrict(r15, val < 100)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() == 0 {
		t.Fatal("read after durable writes returned no tuples")
	}

	live := catBytes(t, cat)
	c.Close()
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2, rv, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// A delete is logged as its survivors' pages and moves no file's
	// base, so every write since the seeding checkpoint is redone.
	if rv.Replayed != len(writes) {
		t.Fatalf("recovery replayed %d records, want %d", rv.Replayed, len(writes))
	}
	if got := catBytes(t, cat2); !bytes.Equal(got, live) {
		t.Fatalf("recovered catalog differs from live catalog (%d vs %d bytes)", len(got), len(live))
	}
}

// TestDurableAckRequiresFsync fails the WAL write under a client
// append: the client must see an error (no acknowledgement) and the
// catalog must be untouched, live and after recovery — a write that
// never became durable never happened.
func TestDurableAckRequiresFsync(t *testing.T) {
	dir := t.TempDir()
	// Write 1 is the seed checkpoint record; the client's append is
	// write 2.
	l, cat := openDurable(t, dir, wal.Options{Injector: &wal.Injector{FailWrite: 2}})
	before := catBytes(t, cat)
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query(context.Background(), `append(r15, restrict(r1, val < 100))`); err == nil {
		t.Fatal("append acknowledged although the WAL write failed")
	}
	if got := catBytes(t, cat); !bytes.Equal(got, before) {
		t.Fatal("failed durable write mutated the live catalog")
	}
	s.Close()
	l.Close()

	l2, cat2, rv, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rv.Replayed != 0 {
		t.Fatalf("recovery replayed %d records, want 0", rv.Replayed)
	}
	if got := catBytes(t, cat2); !bytes.Equal(got, before) {
		t.Fatal("unacknowledged write resurfaced after recovery")
	}
}

// TestAutoCheckpoint sets a one-byte threshold so the first durable
// write schedules a checkpoint job; the job runs under total write
// exclusion and must reset the log's redo size and commit a cover past
// the write.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, cat := openDurable(t, dir, wal.Options{})
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: 1})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query(context.Background(), `append(r15, restrict(r1, val < 100))`); err != nil {
		t.Fatal(err)
	}
	// LSN 1 is the seeding checkpoint's record, LSN 2 the append: the
	// auto-checkpoint covers 2.
	deadline := time.Now().Add(10 * time.Second)
	cover := func() uint64 {
		rp, err := wal.Inspect(l.Dir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rp.Cover
	}
	for l.SizeSinceCheckpoint() != 0 || cover() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-checkpoint did not run: %d bytes since checkpoint, heap files cover LSN %d",
				l.SizeSinceCheckpoint(), cover())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The server keeps serving while and after the checkpoint runs.
	if _, err := c.Query(context.Background(), `restrict(r1, val < 10)`); err != nil {
		t.Fatal(err)
	}
	s.Close()
	l.Close()
}

// TestServerCheckpointWaits exercises the exported Checkpoint: it must
// queue behind in-flight writes, checkpoint, and return nil; the next
// recovery then replays nothing.
func TestServerCheckpointWaits(t *testing.T) {
	dir := t.TempDir()
	l, cat := openDurable(t, dir, wal.Options{})
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(context.Background(), `append(r15, restrict(r1, val < 100))`); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	live := catBytes(t, cat)
	s.Close()
	l.Close()

	l2, cat2, rv, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rv.Replayed != 0 {
		t.Fatalf("recovery after checkpoint replayed %d records, want 0", rv.Replayed)
	}
	if !bytes.Equal(catBytes(t, cat2), live) {
		t.Fatal("checkpointed recovery differs from live catalog")
	}
}

// TestAppendSourcePagesComeBack: the pages an append's input subtree
// produced go back to the page free list once the record is applied, so
// after the first append a hundred more buy next to nothing — a page
// when a run happens to hold more at once than any before it (four
// workers and a compressor bound that), where each append used to
// retain, and so buy, at least one. The first append takes pages from
// the list whatever stock earlier tests left there; whether it had to
// buy them depends on that stock, so only the taking is checked.
func TestAppendSourcePagesComeBack(t *testing.T) {
	l, cat := openDurable(t, t.TempDir(), wal.Options{Fsync: wal.FsyncNone})
	reg := obs.NewRegistry(time.Millisecond)
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1, Obs: obs.New(nil, reg)})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var afterFirst int64
	for i := 0; i <= 100; i++ {
		if _, err := c.Query(context.Background(), `append(r15, restrict(r1, val < 300))`); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if reg.Counter("core.pool_hits")+reg.Counter("core.pool_misses") == 0 {
				t.Fatal("the first append took no page: the test measures nothing")
			}
			afterFirst = reg.Counter("core.pool_misses")
		}
	}
	if got := reg.Counter("core.pool_misses"); got-afterFirst > 8 {
		t.Errorf("100 appends after the first bought %d more pages (pool misses %d -> %d)", got-afterFirst, afterFirst, got)
	}
}
