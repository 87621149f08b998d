package wal

import (
	"bytes"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/obs"
	"dfdbm/internal/pred"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// heapOp is a logical write op that can be applied both to a
// heap-backed catalog (through AppendRecord or DeleteRecord + Apply,
// exactly like the server) and to a fully resident reference catalog
// (tuple by tuple, through the relation's own insert path, and the
// serial executor's compacting delete). Byte-identity of the two after
// any op sequence is the storage subsystem's core invariant.
type heapOp struct {
	kind     string // "append" or "delete"
	start, n int    // append: first id and tuple count
	pred     string // delete: predicate text
	rel      string // the relation written, "ev" when empty
}

func heapTestOps() []heapOp {
	return []heapOp{
		{kind: "append", start: 100, n: 5},
		{kind: "delete", pred: "id < 2"},
		{kind: "append", start: 200, n: 30}, // several pages
		{kind: "delete", pred: `(id >= 200) and (id < 210)`},
		{kind: "append", start: 300, n: 3},
		{kind: "delete", pred: "tag = \"seed\""},
		{kind: "delete", pred: "id >= 0"}, // truncates to no pages
		{kind: "append", start: 500, n: 12},
	}
}

func buildSrc(t testing.TB, start, n int) *relation.Relation {
	t.Helper()
	src := relation.MustNew("src", evSchema(), 128)
	for i := 0; i < n; i++ {
		if err := src.Insert(relation.Tuple{relation.IntVal(int64(start + i)), relation.StringVal("wal")}); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// applyHeapOp builds the op's redo record against cat's live state (the
// physical images depend on the destination's current page layout),
// logs it, and applies it — the same log-then-apply order the server
// uses. With a nil log cat is the resident reference and no record is
// involved: an append is plain InsertRaw calls, the fill-then-grow
// discipline the post-images claim to reproduce, and a delete is
// relalg.Delete, the compaction they claim to leave.
func applyHeapOp(t testing.TB, l *Log, cat *catalog.Catalog, op heapOp) error {
	t.Helper()
	name := op.rel
	if name == "" {
		name = "ev"
	}
	dst, err := cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var rec *Record
	switch op.kind {
	case "append":
		if l == nil {
			for _, raw := range rawTuples(t, buildSrc(t, op.start, op.n)) {
				if err := dst.InsertRaw(raw); err != nil {
					t.Fatal(err)
				}
			}
			cat.Touch(name)
			return nil
		}
		rec, err = AppendRecord(dst, buildSrc(t, op.start, op.n))
	case "delete":
		if l == nil {
			if _, err := relalg.Delete(dst, parsePred(t, op.pred)); err != nil {
				t.Fatal(err)
			}
			cat.Touch(name)
			return nil
		}
		rec, err = DeleteRecord(dst, parsePred(t, op.pred))
	default:
		t.Fatalf("unknown op kind %q", op.kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	if l != nil {
		if _, err := l.Append(rec); err != nil {
			return err
		}
	}
	if _, err := rec.Apply(cat); err != nil {
		t.Fatalf("apply %s: %v", op.kind, err)
	}
	return nil
}

// parsePred parses a delete predicate on ev.
func parsePred(t testing.TB, text string) pred.Pred {
	t.Helper()
	root, err := query.Parse("delete(ev, " + text + ")")
	if err != nil {
		t.Fatal(err)
	}
	return root.Pred
}

// rawTuples returns copies of r's tuples in storage order.
func rawTuples(t testing.TB, r *relation.Relation) [][]byte {
	t.Helper()
	var out [][]byte
	err := r.EachPage(func(pg *relation.Page) error {
		pg.EachRaw(func(raw []byte) bool {
			out = append(out, bytes.Clone(raw))
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// heapPrefixStates returns resident-reference catalog Save bytes after
// each prefix of ops.
func heapPrefixStates(t testing.TB, ops []heapOp) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(ops)+1)
	c := seedCatalog(t)
	out = append(out, saveBytes(t, c))
	for _, op := range ops {
		applyHeapOp(t, nil, c, op)
		out = append(out, saveBytes(t, c))
	}
	return out
}

// requirePagesEqual asserts got (heap-backed) and want (resident) hold
// byte-identical pages — the "identical to in-memory Relation by
// construction" contract, checked at the marshalled-page level so slot
// layout drift cannot hide behind tuple-level equality.
func requirePagesEqual(t testing.TB, got, want *relation.Relation) {
	t.Helper()
	if got.NumPages() != want.NumPages() {
		t.Fatalf("page count %d, want %d", got.NumPages(), want.NumPages())
	}
	if got.Cardinality() != want.Cardinality() {
		t.Fatalf("cardinality %d, want %d", got.Cardinality(), want.Cardinality())
	}
	for i := 0; i < want.NumPages(); i++ {
		gp, err := got.CopyPage(i)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if !bytes.Equal(gp.Marshal(), want.Page(i).Marshal()) {
			t.Fatalf("page %d differs between heap file and resident reference", i)
		}
	}
}

func heapOptions(frames int) Options {
	return Options{Heap: &HeapOptions{Frames: frames}}
}

// TestHeapRoundtripRecovery runs the roundtrip behind 4 frames, fewer
// than the relation has pages: eviction wrote dirty pages back into the
// heap file before the close, and replay re-installs over them.
func TestHeapRoundtripRecovery(t *testing.T) { roundtripRecovery(t, heapOptions(4)) }

// TestHeapCheckpointSkipsReplay pins the cover skip: a checkpoint
// commits its cover in the manifest, so reopening replays only records
// logged after it.
func TestHeapCheckpointSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, heapOptions(4))
	ops := heapTestOps()
	for i, op := range ops {
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := l.Checkpoint(cat); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := saveBytes(t, cat)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, cat2, rv, err := Open(dir, heapOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if rv.Replayed >= len(ops) {
		t.Fatalf("replayed %d records despite a mid-sequence checkpoint", rv.Replayed)
	}
	if got := saveBytes(t, cat2); !bytes.Equal(got, want) {
		t.Fatal("recovered catalog differs after checkpointed recovery")
	}
}

// TestHeapCheckpointCrashAtEveryFile crashes in the middle of a
// checkpoint of three relations. It copies the data directory before
// the checkpoint and after it, and builds from the two copies each
// directory a crash can leave: the first k files made durable, the
// rest of the files and the manifest as they were, the log as it was
// (the checkpoint record comes after the heap work); then the manifest
// committed too, the files not yet trimmed. A durable file is the later
// copy's bytes with the earlier copy's past its end: its stale slots are
// not trimmed yet. Every such directory must recover to the
// acknowledged state, byte for byte.
func TestHeapCheckpointCrashAtEveryFile(t *testing.T) {
	names := []string{"ea", "eb", "ev"} // the order a checkpoint takes them in
	dir := t.TempDir()
	l, _, rv, err := Open(dir, heapOptions(4))
	if err != nil || !rv.Fresh {
		t.Fatalf("open: %v, fresh %v", err, rv.Fresh)
	}
	cat := seedCatalog(t)
	ev, _ := cat.Get("ev")
	for _, name := range names[:2] {
		cat.Put(ev.Clone(name))
	}
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	// Relation j skips op i when i%3 == j, so the three files differ.
	// The first half of the ops lies behind an earlier checkpoint; the
	// second half ends in a delete of everything and a short append, so
	// files shrink past their last committed page count.
	ops := heapTestOps()
	run := func(from, to int) {
		for i := from; i < to; i++ {
			for j, name := range names {
				if i%len(names) == j {
					continue
				}
				op := ops[i]
				op.rel = name
				if err := applyHeapOp(t, l, cat, op); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(0, len(ops)/2)
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	run(len(ops)/2, len(ops))
	want := saveBytes(t, cat)
	before := readDir(t, dir)
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	after := readDir(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	heapFile := func(name string) string { return filepath.Join("heap", name+".heap") }
	shrunk := 0
	durable := func(name string) []byte {
		later, earlier := after[heapFile(name)], before[heapFile(name)]
		if len(earlier) > len(later) {
			shrunk++
			later = append(bytes.Clone(later), earlier[len(later):]...)
		}
		return later
	}
	recoverFrom := func(what string, files map[string][]byte) {
		t.Helper()
		crash := t.TempDir()
		for rel, b := range files {
			path := filepath.Join(crash, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l2, cat2, _, err := Open(crash, heapOptions(4))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer l2.Close()
		if cat2 == nil || !bytes.Equal(saveBytes(t, cat2), want) {
			t.Fatalf("%s: recovered state differs from the acknowledged one", what)
		}
	}
	for k := 0; k <= len(names); k++ {
		files := maps.Clone(before)
		for _, name := range names[:k] {
			files[heapFile(name)] = durable(name)
		}
		recoverFrom(fmt.Sprintf("%d of %d files durable", k, len(names)), files)
	}
	files := maps.Clone(before)
	for _, name := range names {
		files[heapFile(name)] = durable(name)
	}
	files[filepath.Join("heap", "manifest")] = after[filepath.Join("heap", "manifest")]
	recoverFrom("manifest committed, files untrimmed", files)
	recoverFrom("checkpoint complete", after)
	if shrunk == 0 {
		t.Fatal("no file shrank across the checkpoint; the untrimmed cases prove nothing")
	}
}

// readDir returns every regular file under dir by its path relative to
// dir.
func readDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHeapCrashPointMatrix crashes behind 4 frames: eviction write-backs
// reached the heap file before the crash, so recovery re-installs
// post-images over slots the file already holds.
func TestHeapCrashPointMatrix(t *testing.T) { crashPointMatrix(t, heapOptions(4)) }

// TestHeapPropertyShadow is the randomized storage property test: a
// heap-backed catalog behind a 4-frame buffer pool (well below the
// working set, so eviction and write-back churn constantly) and a
// fully resident shadow catalog receive the same random interleaving
// of appends, deletes, scans, and checkpoints. After every op the
// heap-backed relation must hold byte-identical pages; after a crash
// (unflushed Close) and recovery, still identical. The pool keeps its
// occupancy gauge incrementally; after every op it must equal what
// Snapshot counts by walking the frame table.
func TestHeapPropertyShadow(t *testing.T) {
	const opsN = 80
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	reg := obs.NewRegistry(time.Second)
	opts := heapOptions(4)
	opts.Obs = obs.New(nil, reg)
	l, cat := openSeeded(t, dir, opts)
	shadow := seedCatalog(t)
	requireGauges := func(after string) {
		t.Helper()
		st := l.Heap().Pool().Snapshot()
		inUse, _ := reg.Gauge("bufpool.frames_in_use")
		if int(inUse) != st.InUse || st.Loading != 0 {
			t.Fatalf("after %s: gauge says %v in use; the frame table holds %d, %d loading",
				after, inUse, st.InUse, st.Loading)
		}
	}

	next := 1000
	for i := 0; i < opsN; i++ {
		var op heapOp
		switch k := rng.Intn(10); {
		case k < 5: // append 1..40 tuples
			op = heapOp{kind: "append", start: next, n: 1 + rng.Intn(40)}
			next += op.n
		case k < 7: // range delete
			lo := rng.Intn(next)
			op = heapOp{kind: "delete", pred: fmt.Sprintf("(id >= %d) and (id < %d)", lo, lo+1+rng.Intn(50))}
		case k < 8: // checkpoint mid-stream
			if err := l.Checkpoint(cat); err != nil {
				t.Fatal(err)
			}
			requireGauges("checkpoint")
			continue
		default: // full scan through the buffer pool
			rel, _ := cat.Get("ev")
			want, _ := shadow.Get("ev")
			requirePagesEqual(t, rel, want)
			requireGauges("scan")
			continue
		}
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		applyHeapOp(t, nil, shadow, op)
		requireGauges(op.kind)

		rel, _ := cat.Get("ev")
		want, _ := shadow.Get("ev")
		requirePagesEqual(t, rel, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-equivalent close, then recovery: still byte-identical.
	_, cat2, _, err := Open(dir, heapOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat2.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := shadow.Get("ev")
	requirePagesEqual(t, rel, want)
}

// TestHeapEvictionPressure builds a relation well past the frame
// budget and proves the pool actually evicted (the larger-than-memory
// acceptance signal) while scans stay correct; then a delete through
// the 2-frame pool leaves the serial reference's pages, in memory and
// after a reopen.
func TestHeapEvictionPressure(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	dir := t.TempDir()
	opts := heapOptions(2)
	opts.Obs = obs.New(nil, reg)
	l, cat := openSeeded(t, dir, opts)

	shadow := seedCatalog(t)
	for i := 0; i < 6; i++ {
		op := heapOp{kind: "append", start: 1000 + 100*i, n: 30}
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		applyHeapOp(t, nil, shadow, op)
	}
	rel, _ := cat.Get("ev")
	if rel.NumPages() <= 2 {
		t.Fatalf("relation has %d pages; does not exceed the 2-frame pool", rel.NumPages())
	}
	want, _ := shadow.Get("ev")
	requirePagesEqual(t, rel, want)
	if ev := reg.Counter("bufpool.evictions"); ev == 0 {
		t.Fatal("bufpool.evictions = 0 for a working set above the frame budget")
	}
	if h := reg.Counter("bufpool.hits"); h == 0 {
		t.Fatal("bufpool.hits = 0; scans never hit the pool")
	}

	del := heapOp{kind: "delete", pred: "(id >= 1150) and (id < 1420)"}
	if err := applyHeapOp(t, l, cat, del); err != nil {
		t.Fatal(err)
	}
	applyHeapOp(t, nil, shadow, del)
	requirePagesEqual(t, rel, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, cat2, _, err := Open(dir, heapOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rel2, err := cat2.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	requirePagesEqual(t, rel2, want)
}

// TestHeapInspectAudit covers the wal-inspect heap audit: a clean
// directory reports per-relation heap files, and payload corruption
// surfaces as a file error without panicking.
func TestHeapInspectAudit(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, heapOptions(4))
	for _, op := range heapTestOps() {
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	wantTuples := 0
	if rel, err := cat.Get("ev"); err == nil {
		wantTuples = rel.Cardinality()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rp, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Clean() {
		t.Fatalf("clean heap directory inspected dirty: %+v", rp)
	}
	if len(rp.Heap) != 1 || rp.Heap[0].Rel != "ev" {
		t.Fatalf("heap audit missing relation: %+v", rp.Heap)
	}
	if rp.Heap[0].Tuples != wantTuples {
		t.Fatalf("audit counted %d tuples, want %d", rp.Heap[0].Tuples, wantTuples)
	}
	if rp.Heap[0].Bytes <= 0 {
		t.Fatal("audit reported a zero-byte heap file")
	}

	// Flip one payload byte in the heap file: audit must attribute the
	// corruption to the file, and Clean must go false.
	path := rp.Heap[0].Path
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Byte 20 of the first slot sits inside its page blob (16-byte slot
	// header, then the blob).
	blob[heap.SlotOffset(rp.Heap[0].PageSize, 0)+20] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	rp2, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Clean() {
		t.Fatal("corrupt heap file inspected clean")
	}
	if len(rp2.Heap) != 1 || rp2.Heap[0].Err == nil {
		t.Fatalf("corruption not attributed to the heap file: %+v", rp2.Heap)
	}
}
