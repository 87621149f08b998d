package heap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Attr{Name: "a", Type: relation.Int64},
		relation.Attr{Name: "b", Type: relation.Int64},
	)
}

// seedRelation builds a resident relation with n tuples of (i, i*10).
func seedRelation(t testing.TB, name string, schema *relation.Schema, pageSize, n int) *relation.Relation {
	t.Helper()
	rel := relation.MustNew(name, schema, pageSize)
	for i := 0; i < n; i++ {
		if err := rel.Insert(relation.Tuple{relation.IntVal(int64(i)), relation.IntVal(int64(i * 10))}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return rel
}

// installTuple appends raw to a stored relation the way a WAL append
// record's Apply does: a post-image of the partial tail page (or a fresh
// page when the tail is full) with the tuple added, installed over the
// tail.
func installTuple(t testing.TB, rel *relation.Relation, raw []byte) {
	t.Helper()
	n := rel.NumPages()
	i, img := n, relation.MustNewPage(rel.PageSize(), rel.Schema().TupleLen())
	if n > 0 {
		tail, err := rel.CopyPage(n - 1)
		if err != nil {
			t.Fatal(err)
		}
		if !tail.Full() {
			i, img = n-1, tail
		}
	}
	if err := img.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	if err := rel.InstallPage(i, img); err != nil {
		t.Fatal(err)
	}
}

func TestFileCreateFromRoundtrip(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	rel := seedRelation(t, "r", schema, 256, 100) // 16-byte tuples, 15/page
	path := filepath.Join(dir, "r.heap")

	hf, err := CreateFrom(path, rel, SchemaHash(schema))
	if err != nil {
		t.Fatalf("CreateFrom: %v", err)
	}
	if hf.NumPages() != rel.NumPages() {
		t.Fatalf("pages = %d, want %d", hf.NumPages(), rel.NumPages())
	}
	if hf.Cardinality() != 100 {
		t.Fatalf("cardinality = %d, want 100", hf.Cardinality())
	}
	for i := 0; i < rel.NumPages(); i++ {
		got, err := hf.ReadPage(i)
		if err != nil {
			t.Fatalf("ReadPage(%d): %v", i, err)
		}
		want := rel.Page(i).Marshal()
		if string(got.Marshal()) != string(want) {
			t.Fatalf("page %d not byte-identical after roundtrip", i)
		}
	}
	if err := hf.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: logical state must come back from the page count and the
	// slot scan.
	hf2, err := Open(path, SchemaHash(schema), uint64(rel.NumPages()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer hf2.Close()
	if hf2.NumPages() != rel.NumPages() || hf2.Cardinality() != 100 {
		t.Fatalf("reopened state pages=%d card=%d", hf2.NumPages(), hf2.Cardinality())
	}
}

func TestFileSchemaHashMismatch(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	rel := seedRelation(t, "r", schema, 256, 10)
	path := filepath.Join(dir, "r.heap")
	hf, err := CreateFrom(path, rel, SchemaHash(schema))
	if err != nil {
		t.Fatalf("CreateFrom: %v", err)
	}
	hf.Close()
	if _, err := Open(path, SchemaHash(schema)+1, uint64(rel.NumPages())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with wrong schema hash: err = %v, want ErrCorrupt", err)
	}
}

func TestFileSlotCRC(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	rel := seedRelation(t, "r", schema, 256, 30)
	path := filepath.Join(dir, "r.heap")
	hf, err := CreateFrom(path, rel, SchemaHash(schema))
	if err != nil {
		t.Fatalf("CreateFrom: %v", err)
	}
	hf.Close()

	// Flip one payload byte in slot 1: its CRC must catch it.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := SlotOffset(256, 1) + slotHeaderLen + 20
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	hf2, err := Open(path, SchemaHash(schema), uint64(rel.NumPages()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer hf2.Close()
	if _, err := hf2.ReadPage(0); err != nil {
		t.Fatalf("ReadPage(0) should be clean: %v", err)
	}
	if _, err := hf2.ReadPage(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadPage(1): err = %v, want ErrCorrupt", err)
	}
}

func TestPoolEvictWriteBack(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	rel := seedRelation(t, "r", schema, 256, 90) // 6 pages at 15/page
	path := filepath.Join(dir, "r.heap")
	hf, err := CreateFrom(path, rel, SchemaHash(schema))
	if err != nil {
		t.Fatalf("CreateFrom: %v", err)
	}
	defer hf.Close()

	reg := obs.NewRegistry(0)
	pool := NewPool(4, obs.New(nil, reg))

	// Touch every page: 6 pages through 4 frames forces evictions.
	for i := 0; i < hf.NumPages(); i++ {
		pg, err := pool.readOne(hf, i)
		if err != nil {
			t.Fatalf("readOne(%d): %v", i, err)
		}
		if pg.TupleCount() != hf.PageTuples(i) {
			t.Fatalf("page %d tuples = %d, want %d", i, pg.TupleCount(), hf.PageTuples(i))
		}
	}
	if ev := reg.Counter("bufpool.evictions"); ev == 0 {
		t.Fatal("expected evictions > 0 scanning 6 pages through 4 frames")
	}
	if st := pool.Snapshot(); st.InUse != 4 || st.Loading != 0 {
		t.Fatalf("snapshot = %+v, want 4 in use, 0 loading", st)
	}

	// Install a dirty post-image, evict it by scanning, and verify the
	// write-back reached the file.
	raw := make([]byte, schema.TupleLen())
	binary.LittleEndian.PutUint64(raw[0:8], 4242)
	fresh := relation.MustNewPage(256, schema.TupleLen())
	if err := fresh.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	if err := pool.Install(hf, 0, fresh); err != nil {
		t.Fatalf("Install: %v", err)
	}
	for i := 1; i < hf.NumPages(); i++ { // churn the pool to evict slot 0
		if _, err := pool.readOne(hf, i); err != nil {
			t.Fatal(err)
		}
	}
	if wb := reg.Counter("bufpool.writebacks"); wb == 0 {
		t.Fatal("expected a write-back of the dirty installed page")
	}
	got, err := hf.ReadPage(0)
	if err != nil {
		t.Fatalf("ReadPage(0) after write-back: %v", err)
	}
	if got.TupleCount() != 1 {
		t.Fatalf("written-back page has %d tuples, want 1", got.TupleCount())
	}
}

// TestPoolWaitsForAFrame: with every frame loading, a miss that needs a
// frame waits for one to be published instead of failing, and then gets
// its page; so does an Install.
func TestPoolWaitsForAFrame(t *testing.T) {
	schema := testSchema(t)
	rel := seedRelation(t, "r", schema, 256, 60)
	hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(schema))
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	pool := NewPool(2, nil)
	entered, release := make(chan struct{}, 2), make(chan struct{})
	hf.readHook = func(first, n int) {
		if first < 2 {
			entered <- struct{}{}
			<-release
		}
	}
	loads := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { loads <- struct{}{} }()
			if pg, err := pool.readOne(hf, i); err != nil || pageIndex(pg) != i {
				t.Errorf("load of page %d: %v", i, err)
			}
		}()
		within(t, "a load reaching its read", entered)
	}
	if st := pool.Snapshot(); st.Loading != 2 {
		t.Fatalf("%+v, want both frames loading", st)
	}
	miss, install := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(miss)
		if pg, err := pool.readOne(hf, 2); err != nil || pageIndex(pg) != 2 {
			t.Errorf("miss with every frame loading: %v", err)
		}
	}()
	go func() {
		defer close(install)
		if err := pool.Install(hf, 3, relation.MustNewPage(256, schema.TupleLen())); err != nil {
			t.Errorf("Install with every frame loading: %v", err)
		}
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let both find every frame loading, most times
	}
	select {
	case <-miss:
		t.Fatal("the miss finished while every frame was loading")
	case <-install:
		t.Fatal("the Install finished while every frame was loading")
	default:
	}
	close(release)
	for i := 0; i < 2; i++ {
		within(t, "a load", loads)
	}
	within(t, "the miss", miss)
	within(t, "the Install", install)
}

func TestStoreAdoptLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	store, err := OpenStore(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cat := catalog.New()
	r1 := seedRelation(t, "r1", schema, 256, 50)
	r2 := seedRelation(t, "r2", schema, 256, 80)
	wantKeys1, wantKeys2 := r1.SortedKeys(), r2.SortedKeys()
	cat.Put(r1)
	cat.Put(r2)

	if err := store.Checkpoint(cat, 11); err != nil {
		t.Fatalf("Checkpoint (adopt): %v", err)
	}
	if !r1.Stored() || !r2.Stored() {
		t.Fatal("relations should be stored after checkpoint adoption")
	}
	if !HasManifest(dir) {
		t.Fatal("manifest missing after checkpoint")
	}
	header, err := os.ReadFile(store.filePath("r1"))
	if err != nil {
		t.Fatal(err)
	}
	header = header[:dataOff]

	// Stored relations refuse a direct append, which the log would never
	// see, and take page installs, reading through the pool.
	raw, err := relation.EncodeTuple(nil, schema, relation.Tuple{relation.IntVal(999), relation.IntVal(9990)})
	if err != nil {
		t.Fatal(err)
	}
	pg := relation.MustNewPage(256, schema.TupleLen())
	if err := pg.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"Insert":     r1.Insert(relation.Tuple{relation.IntVal(999), relation.IntVal(9990)}),
		"InsertRaw":  r1.InsertRaw(raw),
		"AppendPage": r1.AppendPage(pg),
		"LendPage":   r1.LendPage(pg),
	} {
		if err == nil || !strings.Contains(err.Error(), "WAL") {
			t.Errorf("%s on a stored relation: %v, want a refusal naming the WAL", name, err)
		}
	}
	if r1.Cardinality() != 50 || r1.NumPages() != 4 {
		t.Fatalf("refused appends left %d tuples in %d pages, want 50 in 4", r1.Cardinality(), r1.NumPages())
	}
	installTuple(t, r1, raw)
	if r1.Cardinality() != 51 {
		t.Fatalf("cardinality = %d, want 51", r1.Cardinality())
	}
	if err := store.Checkpoint(cat, 12); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	// A checkpoint commits in the manifest and writes no file header.
	if img, err := os.ReadFile(store.filePath("r1")); err != nil || !bytes.Equal(img[:dataOff], header) {
		t.Fatalf("the second checkpoint rewrote r1's header (%v)", err)
	}
	store.Close()

	// Fresh store: LoadCatalog rebuilds from manifest + files.
	store2, err := OpenStore(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cat2, cover, err := store2.LoadCatalog()
	if err != nil {
		t.Fatalf("LoadCatalog: %v", err)
	}
	if cover != 12 {
		t.Fatalf("the manifest covers LSN %d, want 12", cover)
	}
	g1, err := cat2.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	if g1.Cardinality() != 51 {
		t.Fatalf("loaded r1 cardinality = %d, want 51", g1.Cardinality())
	}
	g2, err := cat2.Get("r2")
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.SortedKeys(); len(got) != len(wantKeys2) {
		t.Fatalf("r2 has %d tuples, want %d", len(got), len(wantKeys2))
	}
	_ = wantKeys1
}

// A checkpoint whose manifest does not commit trims nothing: the file
// still holds every slot the old manifest counts, and the store opens
// from it. Once a manifest commits, the stale slots go.
func TestCheckpointTrimsOnlyAfterCommit(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rel := seedRelation(t, "r", testSchema(t), 256, 100)
	cat := catalog.New()
	cat.Put(rel)
	if err := store.Checkpoint(cat, 1); err != nil {
		t.Fatal(err)
	}
	pages := rel.NumPages()
	committed, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Truncate(1); err != nil {
		t.Fatal(err)
	}
	// A directory in the manifest's place makes its rename fail.
	manifest := filepath.Join(dir, manifestName)
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(manifest, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(cat, 2); err == nil {
		t.Fatal("a checkpoint whose manifest could not be written succeeded")
	}
	if size, err := store.FileSize("r"); err != nil || size != SlotOffset(256, pages) {
		t.Fatalf("after the failed commit the file is %d bytes (%v), want its %d committed slots: %d", size, err, pages, SlotOffset(256, pages))
	}
	if err := os.RemoveAll(manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if cover, audits, err := Audit(dir); err != nil || cover != 1 || audits[0].Err != nil || audits[0].Pages != pages {
		t.Fatalf("the old manifest over the untrimmed file: cover %d, %+v, %v; want cover 1 and %d clean pages", cover, audits, err, pages)
	}
	if err := store.Checkpoint(cat, 2); err != nil {
		t.Fatal(err)
	}
	if size, err := store.FileSize("r"); err != nil || size != SlotOffset(256, 1) {
		t.Fatalf("after the commit the file is %d bytes (%v), want one slot: %d", size, err, SlotOffset(256, 1))
	}
}

func TestAuditCatchesCorruption(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	store, err := OpenStore(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(seedRelation(t, "good", schema, 256, 40))
	cat.Put(seedRelation(t, "bad", schema, 256, 40))
	if err := store.Checkpoint(cat, 3); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Corrupt one slot payload byte of "bad".
	f, err := os.OpenFile(filepath.Join(dir, "bad.heap"), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := SlotOffset(256, 0) + slotHeaderLen + 25
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cover, audits, err := Audit(dir)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if cover != 3 {
		t.Fatalf("Audit read cover %d, want 3", cover)
	}
	if len(audits) != 2 {
		t.Fatalf("audited %d files, want 2", len(audits))
	}
	byRel := map[string]FileAudit{}
	for _, a := range audits {
		byRel[a.Rel] = a
	}
	if byRel["good"].Err != nil {
		t.Fatalf("good: unexpected audit error %v", byRel["good"].Err)
	}
	if byRel["good"].Tuples != 40 {
		t.Fatalf("good audit = %+v", byRel["good"])
	}
	if !errors.Is(byRel["bad"].Err, ErrCorrupt) {
		t.Fatalf("bad: err = %v, want ErrCorrupt", byRel["bad"].Err)
	}
}

// TestPoolGaugesTrackSnapshot: the pool keeps bufpool.frames_in_use on
// every claim and vacate instead of walking the frame table; with pages
// read, held, evicted around and truncated away, the gauge must
// equal the walking audit.
func TestPoolGaugesTrackSnapshot(t *testing.T) {
	schema := testSchema(t)
	rel := seedRelation(t, "r", schema, 256, 90) // 6 pages
	hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(schema))
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	reg := obs.NewRegistry(0)
	pool := NewPool(4, obs.New(nil, reg))
	check := func(after string, wantInUse int) {
		t.Helper()
		st := pool.Snapshot()
		inUse, _ := reg.Gauge("bufpool.frames_in_use")
		if int(inUse) != st.InUse || st.InUse != wantInUse || st.Loading != 0 {
			t.Fatalf("after %s: gauge %v in use; snapshot %+v; want %d in use", after, inUse, st, wantInUse)
		}
	}
	read := func(i int) *relation.Page {
		t.Helper()
		pg, err := pool.readOne(hf, i)
		if err != nil {
			t.Fatalf("readOne(%d): %v", i, err)
		}
		return pg
	}
	held := read(0)
	read(1)
	check("two reads", 2)
	read(0) // a second read of a resident page claims no frame
	check("a hit", 2)
	for i := 2; i < hf.NumPages(); i++ {
		read(i)
	}
	check("scan with eviction", 4)
	if err := pool.Truncate(hf, 0); err != nil {
		t.Fatal(err)
	}
	check("Truncate to 0 with a page held", 0)
	if pageIndex(held) != 0 {
		t.Error("Truncate took the page from under its reader")
	}
}

// TestColdScanAllocCeiling: a scan of a relation far larger than the
// pool misses on every page, and once the pool's free list is warm a miss
// buys nothing — the slots are read into one of the pool's reusable
// buffers, decoded into a page from the list, and the frame is an evicted
// one — provided the reader releases each page when it has read it: the
// scan then costs its run array and nothing that grows with its length. A
// reader that never releases still works; it leaves its pages to the
// collector and each miss buys a page, struct and payload, as before the
// pages were shared. With a metrics registry attached, as on a server.
func TestColdScanAllocCeiling(t *testing.T) {
	const frames = 4
	store, err := OpenStore(t.TempDir(), frames, obs.New(nil, obs.NewRegistry(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rel := seedRelation(t, "r", testSchema(t), 2048, 10000) // 127 tuples to a page
	if err := store.Adopt(rel); err != nil {
		t.Fatal(err)
	}
	pages := rel.NumPages()
	if pages < 10*frames {
		t.Fatalf("relation has %d pages; the scan must stay cold in a %d-frame pool", pages, frames)
	}
	tuples, release := 0, true
	scan := func() {
		tuples = 0
		if err := rel.EachPage(func(pg *relation.Page) error {
			tuples += pg.TupleCount()
			if release {
				pg.Release()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, scan) // its warm-up run warms the list
	if tuples != 10000 {
		t.Fatalf("scan read %d tuples, want 10000", tuples)
	}
	if allocs > 2 {
		t.Errorf("cold scan of %d pages that releases them: %.0f allocations, want at most 2 whatever the length", pages, allocs)
	}
	release = false
	allocs = testing.AllocsPerRun(3, scan)
	if tuples != 10000 {
		t.Fatalf("scan that keeps its pages read %d tuples, want 10000", tuples)
	}
	if ceiling := float64(2*pages + 1); allocs > ceiling {
		t.Errorf("cold scan of %d pages that keeps them: %.0f allocations, want at most 2 per page read and 1 per scan (%.0f)", pages, allocs, ceiling)
	}
}

// readOne is ReadRun for page i alone, for tests that work a page at a
// time; the page's reference is left to the collector unless the test
// releases it.
func (p *Pool) readOne(f *File, i int) (*relation.Page, error) {
	var one [1]*relation.Page
	if _, err := p.ReadRun(f, i, one[:]); err != nil {
		return nil, err
	}
	return one[0], nil
}
