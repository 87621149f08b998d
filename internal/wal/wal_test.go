package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

func evSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attr{Name: "id", Type: relation.Int32},
		relation.Attr{Name: "tag", Type: relation.String, Width: 6},
	)
}

// seedCatalog builds the deterministic starting catalog every wal test
// recovers back to: one relation "ev" with 8 tuples.
func seedCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	r := relation.MustNew("ev", evSchema(), 128)
	for i := 0; i < 8; i++ {
		if err := r.Insert(relation.Tuple{relation.IntVal(int64(i)), relation.StringVal("seed")}); err != nil {
			t.Fatal(err)
		}
	}
	c := catalog.New()
	c.Put(r)
	return c
}

// saveBytes is the byte-identity yardstick: each relation's name,
// schema, page size and page images, in name order. Two catalogs hold
// the same state iff their images match.
func saveBytes(t testing.TB, c *catalog.Catalog) []byte {
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

// openSeeded opens dir, seeding and checkpointing a fresh directory.
func openSeeded(t testing.TB, dir string, opts Options) (*Log, *catalog.Catalog) {
	t.Helper()
	l, cat, rv, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Fresh {
		cat = seedCatalog(t)
		if err := l.Checkpoint(cat); err != nil {
			t.Fatal(err)
		}
	}
	return l, cat
}

// replayedAfterClose is how many of ops an unflushed Close leaves for
// recovery to redo: a delete rewrites the heap file with the delete's
// own LSN as its base, so only the ops after the last delete are past
// the file's horizon.
func replayedAfterClose(ops []heapOp) int {
	n := 0
	for _, op := range ops {
		n++
		if op.kind == "delete" {
			n = 0
		}
	}
	return n
}

// roundtripRecovery logs and applies the op sequence, closes without
// flushing a frame, and expects recovery to rebuild the catalog byte
// for byte — checked against the resident reference at the catalog and
// at the marshalled-page level — and to resume with dense LSNs.
func roundtripRecovery(t *testing.T, opts Options) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, opts)
	ops := append(heapTestOps(), heapOp{kind: "append", start: 400, n: 7})
	states := heapPrefixStates(t, ops)
	for _, op := range ops {
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Stored() {
		t.Fatal("checkpointed relation is not heap-backed")
	}
	if got := saveBytes(t, cat); !bytes.Equal(got, states[len(ops)]) {
		t.Fatal("live heap-backed catalog differs from resident reference")
	}
	lastLSN := l.LastLSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Close does not flush dirty frames: reopening is a genuine
	// recovery, replaying the log tail into the heap file.
	l2, cat2, rv, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rv.Fresh {
		t.Fatal("recovery reported a fresh directory")
	}
	if want := replayedAfterClose(ops); rv.Replayed != want {
		t.Fatalf("replayed %d records, want %d", rv.Replayed, want)
	}
	if rv.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	if l2.LastLSN() != lastLSN {
		t.Fatalf("recovered LastLSN %d, want %d", l2.LastLSN(), lastLSN)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, states[len(ops)]) {
		t.Fatal("recovered catalog is not byte-identical to the reference")
	}
	ref := seedCatalog(t)
	for _, op := range ops {
		applyHeapOp(t, nil, ref, op)
	}
	wantRel, _ := ref.Get("ev")
	gotRel, _ := cat2.Get("ev")
	requirePagesEqual(t, gotRel, wantRel)

	// Appends continue with dense LSNs after recovery.
	lsn, err := l2.Append(&Record{Type: RecDelete, Rel: "ev", Pred: "id < 0"})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != lastLSN+1 {
		t.Fatalf("post-recovery LSN %d, want %d", lsn, lastLSN+1)
	}
}

// TestRoundtripRecovery runs the roundtrip behind the default buffer
// pool: every page stays in its frame, no write-back reaches the heap
// file before the close, and recovery rebuilds the tail from the log.
// (TestHeapRoundtripRecovery is the same under eviction.)
func TestRoundtripRecovery(t *testing.T) { roundtripRecovery(t, Options{}) }

func TestGroupCommitSharesFsync(t *testing.T) {
	const writers = 8
	reg := obs.NewRegistry(time.Second)
	o := obs.New(nil, reg)
	dir := t.TempDir()

	l, cat := openSeeded(t, dir, Options{Obs: o})
	// The records are built up front (AppendRecord reads the
	// destination) and never applied: only the log is under test.
	dst, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, writers)
	for w := range recs {
		if recs[w], err = AppendRecord(dst, buildSrc(t, 1000+10*w, 2)); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the flusher on its first post-seed batch until every writer
	// is either inside that batch or queued behind it, forcing the
	// stragglers into one shared fsync.
	var gateOnce sync.Once
	testFlushGate = func(l *Log, batch []*appendReq) {
		gateOnce.Do(func() {
			for {
				l.mu.Lock()
				n := len(l.queue)
				l.mu.Unlock()
				if n+len(batch) >= writers {
					break
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	defer func() { testFlushGate = nil }()

	var wg sync.WaitGroup
	var mu sync.Mutex
	lsns := map[uint64]bool{}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lsn, err := l.Append(recs[w])
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			lsns[lsn] = true
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Dense, unique LSNs 2..writers+1 (the checkpoint record took 1).
	if len(lsns) != writers {
		t.Fatalf("%d unique LSNs for %d writers", len(lsns), writers)
	}
	for lsn := uint64(2); lsn <= writers+1; lsn++ {
		if !lsns[lsn] {
			t.Fatalf("LSN %d missing: not dense", lsn)
		}
	}
	// The gate guarantees the writers landed in at most two batches
	// (the held one plus everything queued behind it), so fsyncs must
	// be strictly fewer than records: that is group commit.
	records := reg.Counter("wal.records")
	fsyncs := reg.Counter("wal.fsyncs")
	if records != writers+1 {
		t.Fatalf("wal.records = %d, want %d", records, writers+1)
	}
	if fsyncs >= records {
		t.Fatalf("group commit did not batch: %d fsyncs for %d records", fsyncs, records)
	}
	if max := reg.FindHistogram("wal.group_commit_size").Max(); max < 2 {
		t.Fatalf("largest group commit was %d records, want >= 2", max)
	}
}

func TestRotationAndPrune(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	// Tiny segments force rotation every record or two.
	l, cat := openSeeded(t, dir, Options{SegmentSize: 512, Obs: obs.New(nil, reg)})
	for i := 0; i < 10; i++ {
		if err := applyHeapOp(t, l, cat, heapOp{kind: "append", start: 1000 + 10*i, n: 4}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 10 oversized appends", len(segs))
	}

	// Checkpoint prunes everything the heap files now cover but the
	// last segment, and the files' base LSN is what licensed it.
	cover := l.LastLSN()
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	after, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("%d segments survive a covering checkpoint, want 1", len(after))
	}
	if pruned := reg.Counter("wal.segments_pruned"); int(pruned) != len(segs)-1 {
		t.Fatalf("wal.segments_pruned = %d, want %d", pruned, len(segs)-1)
	}
	if base := l.Heap().MinBaseLSN(); base != cover {
		t.Fatalf("heap files cover LSN %d after the checkpoint, want %d", base, cover)
	}
	want := saveBytes(t, cat)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, cat2, rv, err := Open(dir, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rv.Replayed != 0 {
		t.Fatalf("replayed %d records after a covering checkpoint, want 0", rv.Replayed)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs after rotation + prune")
	}
}

func TestCheckpointSkipsWhenClean(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{Obs: obs.New(nil, reg)})
	defer l.Close()

	before := l.LastLSN()
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	if after := l.LastLSN(); after != before {
		t.Fatalf("no-op checkpoint logged a record (LSN %d -> %d)", before, after)
	}
	if skipped := reg.Counter("wal.checkpoints_skipped"); skipped != 1 {
		t.Fatalf("wal.checkpoints_skipped = %d, want 1", skipped)
	}

	// A write makes the next checkpoint real again.
	if err := applyHeapOp(t, l, cat, heapOp{kind: "append", start: 500, n: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	if ckpts := reg.Counter("wal.checkpoints"); ckpts != 2 {
		t.Fatalf("wal.checkpoints = %d, want 2", ckpts)
	}
}

func TestTornTailTruncated(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{})
	for _, op := range heapTestOps() {
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	want := saveBytes(t, cat)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write: the last segment gains half a record.
	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	full := encode(&Record{Type: RecAppendPages, Rel: "ev", LSN: 999})
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore, _ := os.Stat(last)

	l2, cat2, rv, err := Open(dir, Options{Obs: obs.New(nil, reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !rv.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rv.TruncatedBytes != int64(len(full)/2) {
		t.Fatalf("truncated %d bytes, want %d", rv.TruncatedBytes, len(full)/2)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs after torn-tail truncation")
	}
	if n := reg.Counter("wal.torn_tail_truncations"); n != 1 {
		t.Fatalf("wal.torn_tail_truncations = %d, want 1", n)
	}
	sizeAfter, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter.Size() != sizeBefore.Size()-int64(len(full)/2) {
		t.Fatalf("segment not truncated: %d -> %d", sizeBefore.Size(), sizeAfter.Size())
	}
}

// crashPointMatrix walks the crash injector across every log write and
// every fsync of the op sequence, in both clean-fail and torn-write
// shapes, and asserts the recovered catalog is always exactly a prefix
// of the acknowledged writes: everything acked survives, nothing is
// ever half-applied (the acked prefix, or that plus the single
// durable-but-unacked record the crash interrupted).
func crashPointMatrix(t *testing.T, opts Options) {
	ops := heapTestOps()
	states := heapPrefixStates(t, ops)

	type point struct {
		name string
		inj  *Injector
	}
	var points []point
	// Record writes: 1 is the checkpoint record, 2.. are the ops.
	for n := int64(1); n <= int64(len(ops))+1; n++ {
		points = append(points,
			point{fmt.Sprintf("write%d-fail", n), &Injector{FailWrite: n}},
			point{fmt.Sprintf("write%d-torn", n), &Injector{FailWrite: n, Torn: true}},
		)
	}
	for n := int64(1); n <= int64(len(ops))+1; n++ {
		points = append(points, point{fmt.Sprintf("sync%d-fail", n), &Injector{FailSync: n}})
	}

	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			crashOpts := opts
			crashOpts.Injector = pt.inj
			l, _, rv, err := Open(dir, crashOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !rv.Fresh {
				t.Fatal("expected fresh directory")
			}
			cat := seedCatalog(t)
			acked := 0
			crashed := false
			if err := l.Checkpoint(cat); err != nil {
				if !Injected(err) {
					t.Fatalf("checkpoint failed for a non-injected reason: %v", err)
				}
				crashed = true
			}
			if !crashed {
				for _, op := range ops {
					if err := applyHeapOp(t, l, cat, op); err != nil {
						if !Injected(err) {
							t.Fatalf("append failed for a non-injected reason: %v", err)
						}
						crashed = true
						break
					}
					acked++
				}
			}
			if !crashed {
				t.Fatal("injector never fired; crash point out of range")
			}
			l.Close()

			l2, cat2, rv2, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer l2.Close()
			if rv2.Fresh {
				t.Fatalf("recovery found a fresh directory after the seeding checkpoint committed (%d writes acked)", acked)
			}
			got := saveBytes(t, cat2)
			if !bytes.Equal(got, states[acked]) &&
				(acked+1 >= len(states) || !bytes.Equal(got, states[acked+1])) {
				t.Fatalf("recovered state is not the acked prefix (%d acked): %s", acked, rv2)
			}
		})
	}
}

// TestCrashPointMatrix crashes behind the default buffer pool: no dirty
// frame was written back before the crash, so the heap file is as the
// last checkpoint or delete left it and the log carries the rest.
// (TestHeapCrashPointMatrix is the same under eviction.)
func TestCrashPointMatrix(t *testing.T) { crashPointMatrix(t, Options{}) }

// TestWALCorruptionEveryFlipAndTruncation is the log half of the
// corruption property test: for every single-byte flip and every
// truncation of the live segment, recovery must never panic and never
// produce anything but a clean prefix of the logged writes — and
// Inspect must stay total too.
func TestWALCorruptionEveryFlipAndTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive corruption sweep")
	}
	// Small ops keep the segment short enough to flip every byte, and
	// FsyncNone keeps the thousands of recovery runs off the disk's
	// flush path (crash atomicity is not under test here — decoding is).
	ops := []heapOp{
		{kind: "append", start: 100, n: 3},
		{kind: "delete", pred: "id < 2"},
		{kind: "append", start: 200, n: 2},
	}
	states := heapPrefixStates(t, ops)

	src := t.TempDir()
	l, cat := openSeeded(t, src, Options{Fsync: FsyncNone})
	// The recovery base every mutated copy starts from is the heap
	// directory as the seeding checkpoint committed it, before the
	// delete below rewrites the file past the records under test.
	base := map[string][]byte{}
	for _, name := range []string{"manifest", "ev.heap"} {
		b, err := os.ReadFile(filepath.Join(src, "heap", name))
		if err != nil {
			t.Fatal(err)
		}
		base[name] = b
	}
	for _, op := range ops {
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(src, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected a single segment, got %d", len(segs))
	}
	segBytes, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0].path)

	check := func(t *testing.T, mutated []byte, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("recovery panicked on %s: %v", what, r)
			}
		}()
		dir := t.TempDir()
		for _, sub := range []string{"heap", "wal"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, b := range base {
			if err := os.WriteFile(filepath.Join(dir, "heap", name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", segName), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Inspect(dir, nil); err != nil && errors.Is(err, ErrCorrupt) {
			t.Fatalf("Inspect returned hard corruption on %s: %v", what, err)
		}
		l, cat, _, err := Open(dir, Options{Fsync: FsyncNone})
		if err != nil {
			// A refusal is allowed; silence with a wrong state is not.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open on %s: unexpected error class: %v", what, err)
			}
			return
		}
		got := saveBytes(t, cat)
		l.Close()
		for _, want := range states {
			if bytes.Equal(got, want) {
				return
			}
		}
		t.Fatalf("recovery of %s produced a state that is no prefix of the log", what)
	}

	for i := range segBytes {
		for _, bit := range []byte{0x01, 0x80} {
			mutated := bytes.Clone(segBytes)
			mutated[i] ^= bit
			check(t, mutated, fmt.Sprintf("flip byte %d ^ %#x", i, bit))
		}
	}
	for n := 0; n < len(segBytes); n++ {
		check(t, segBytes[:n], fmt.Sprintf("truncation to %d bytes", n))
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{SegmentSize: 512})
	ops := heapTestOps()
	for _, op := range ops {
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var seen []uint64
	rp, err := Inspect(dir, func(seg string, off int64, rec *Record) {
		seen = append(seen, rec.LSN)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Clean() {
		t.Fatalf("clean directory inspected dirty: %+v", rp)
	}
	if rp.Records != len(ops)+1 || rp.FirstLSN != 1 || rp.LastLSN != uint64(len(ops))+1 {
		t.Fatalf("report records=%d first=%d last=%d, want %d/1/%d",
			rp.Records, rp.FirstLSN, rp.LastLSN, len(ops)+1, len(ops)+1)
	}
	if len(rp.Segments) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(rp.Segments))
	}
	if len(rp.Heap) != 1 || rp.Heap[0].Rel != "ev" || rp.Heap[0].Err != nil {
		t.Fatalf("heap file report wrong: %+v", rp.Heap)
	}
	for i, lsn := range seen {
		if lsn != uint64(i)+1 {
			t.Fatalf("inspect order broken: record %d has LSN %d", i, lsn)
		}
	}

	// Torn tail shows up as a last-segment error, earlier segments clean.
	segs, _ := listSegments(filepath.Join(dir, "wal"))
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	rp2, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Clean() {
		t.Fatal("torn tail inspected clean")
	}
	if last := rp2.Segments[len(rp2.Segments)-1]; last.Err == "" {
		t.Fatal("torn tail not attributed to the last segment")
	}
}
