package heap

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"testing"

	"dfdbm/internal/relation"
)

// The reference protocol: a page the pool lends is shared between its
// frame and every reader it was handed to, and goes back to the page
// free list when the last of them lets go. Nothing pins a frame; the
// reference keeps the memory. The package runs with recycled pages
// poisoned (TestMain), so a page that went back too early reads 0xDB.

// pageStats is the page free list's counters since the fixture was made:
// the list is the process's, so a test reads its own deltas.
func (fx *runFixture) pageStats() relation.PoolStats {
	st := relation.PageStats()
	return relation.PoolStats{
		Hits:      st.Hits - fx.pages0.Hits,
		Misses:    st.Misses - fx.pages0.Misses,
		Recycled:  st.Recycled - fx.pages0.Recycled,
		FreeBytes: st.FreeBytes,
	}
}

// outstanding is how many pages the fixture took off the free list that
// are not back: in frames or in readers' hands.
func (fx *runFixture) outstanding() int64 {
	st := fx.pageStats()
	return st.Hits + st.Misses - st.Recycled
}

// takeFreePages empties the free list of pages of size bytes, which
// earlier tests leave there, by taking them until one is fresh; nobody
// releases them.
func takeFreePages(size int) {
	for misses := relation.PageStats().Misses; relation.PageStats().Misses == misses; {
		if _, err := relation.Get(size, 16); err != nil {
			panic(err)
		}
	}
}

// readRelease reads page i, checks it is page i, and lets go of the
// reference: a reader that is done.
func readRelease(t *testing.T, fx *runFixture, i int) {
	t.Helper()
	pg, err := fx.pool.readOne(fx.hf, i)
	if err != nil {
		t.Fatalf("readOne(%d): %v", i, err)
	}
	if got := pageIndex(pg); got != i {
		t.Fatalf("readOne(%d) holds page %d", i, got)
	}
	pg.Release()
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// (a) A held page survives the eviction and refill of its frame byte for
// byte; the frames it outlives are refilled from elsewhere; once released
// it is the next miss's page.
func TestHeapSharedPageSurvivesEviction(t *testing.T) {
	fx := newRunFixture(t, 48, 4)
	held, err := fx.pool.readOne(fx.hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(held.Data())
	for i := 1; i <= 40; i++ { // ten rounds of the pool; nobody releases, so every miss buys
		if _, err := fx.pool.readOne(fx.hf, i); err != nil {
			t.Fatal(err)
		}
	}
	if fx.hf.frame(0) != nil {
		t.Fatal("page 0 is still resident: the scan did not evict it")
	}
	if !bytes.Equal(held.Data(), want) || pageIndex(held) != 0 {
		t.Fatal("the held page changed under its reader")
	}
	before := fx.pageStats()
	if before.Hits != 0 || before.Recycled != 0 {
		t.Fatalf("%+v: no page was released, so none can have come back", before)
	}
	held.Release() // the last holder: the frame let go at eviction
	mustPanic(t, "a second Release of the held page", held.Release)
	readRelease(t, fx, 41)
	after := fx.pageStats()
	if after.Hits != 1 || after.Misses != before.Misses {
		t.Errorf("free list %+v -> %+v: the miss after the release should have been served by the released page", before, after)
	}
}

// (b) Two readers share a resident page; both release it and it is still
// resident and intact, because the frame holds a reference of its own —
// which it gives up, exactly once, at eviction.
func TestHeapSharedPageTwoReaders(t *testing.T) {
	fx := newRunFixture(t, 16, 4)
	a, err := fx.pool.readOne(fx.hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.pool.readOne(fx.hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two reads of a resident page returned different pages")
	}
	a.Release()
	b.Release()
	hits := fx.reg.Counter("bufpool.hits")
	readRelease(t, fx, 0) // pageIndex fails on a poisoned page
	if got := fx.reg.Counter("bufpool.hits") - hits; got != 1 {
		t.Fatalf("page 0 counted %d hits after both readers released it, want 1", got)
	}
	if fx.pageStats().Recycled != 0 {
		t.Fatal("a page went back to the list while its frame held it")
	}
	// Evict it with readers that keep their pages: the only page that can
	// come back is page 0's, when its frame lets go — once; a second
	// release by the frame would have panicked.
	for i := 1; i <= 8; i++ {
		if _, err := fx.pool.readOne(fx.hf, i); err != nil {
			t.Fatal(err)
		}
	}
	if fx.hf.frame(0) != nil {
		t.Fatal("page 0 is still resident")
	}
	if st := fx.pageStats(); st.Recycled != 1 {
		t.Errorf("%+v: page 0's page should have come back at its eviction, and nothing else", st)
	}
}

// (c) is TestHeapRunCorruptSlot. (e) Truncate and an Install over a
// resident page give up the frame's reference.
func TestHeapSharedPageTruncateAndInstall(t *testing.T) {
	fx := newRunFixture(t, 8, 4)
	readRelease(t, fx, 0)
	readRelease(t, fx, 1)
	old := fx.hf.frame(1).pg
	post := old.Clone()
	if err := fx.pool.Install(fx.hf, 1, post); err != nil {
		t.Fatal(err)
	}
	if st := fx.pageStats(); st.Recycled != 1 {
		t.Fatalf("%+v after Install over page 1: its old page should be back", st)
	}
	if pg, err := fx.pool.readOne(fx.hf, 1); err != nil || pg != post {
		t.Fatalf("read after Install: %p, %v, want the installed page %p", pg, err, post)
	}
	post.Release() // not a pool's page: nothing to count
	post.Release()
	held, err := fx.pool.readOne(fx.hf, 2) // a reader the truncate must not pull the page from under
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(held.Data())
	if err := fx.pool.Truncate(fx.hf, 0); err != nil {
		t.Fatal(err)
	}
	if st := fx.pageStats(); st.Recycled != 2 || fx.outstanding() != 1 {
		t.Errorf("%+v after Truncate to 0: page 0 should be back and page 2 out with its reader", st)
	}
	if st := fx.pool.Snapshot(); st.InUse != 0 || st.Loading != 0 {
		t.Errorf("after Truncate to 0: %+v", st)
	}
	if !bytes.Equal(held.Data(), want) {
		t.Error("Truncate recycled a page a reader holds")
	}
	held.Release()
	if fx.outstanding() != 0 {
		t.Errorf("%+v: every page should be back", fx.pageStats())
	}
}

// (e) A partial Truncate keeps the frames below its end as they are,
// drops the ones from it on without writing back the dirty one, and
// neither pulls nor recycles a dropped page a reader holds; the slots
// stay on disk until a checkpoint trims them.
func TestHeapSharedPagePartialTruncate(t *testing.T) {
	fx := newRunFixture(t, 8, 4)
	for i := 0; i < 4; i++ {
		readRelease(t, fx, i)
	}
	kept := [2]*relation.Page{fx.hf.frame(0).pg, fx.hf.frame(1).pg}
	post := fx.hf.frame(3).pg.Clone()
	post.Data()[8] ^= 0xFF // a dirty image of page 3 that must never reach the disk
	if err := fx.pool.Install(fx.hf, 3, post); err != nil {
		t.Fatal(err)
	}
	held, err := fx.pool.readOne(fx.hf, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(held.Data())
	slot3 := func() []byte {
		t.Helper()
		b := make([]byte, fx.hf.slotSize)
		if _, err := fx.hf.f.ReadAt(b, SlotOffset(fx.hf.pageSize, 3)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	disk3 := slot3()
	recycled := fx.pageStats().Recycled

	if err := fx.pool.Truncate(fx.hf, 2); err != nil {
		t.Fatal(err)
	}
	if fx.hf.NumPages() != 2 || fx.rel.NumPages() != 2 || fx.rel.Cardinality() != 2*runTestTuplesPerPage {
		t.Fatalf("after Truncate to 2: file %d pages, relation %d pages and %d tuples", fx.hf.NumPages(), fx.rel.NumPages(), fx.rel.Cardinality())
	}
	for i, pg := range kept {
		if fr := fx.hf.frame(i); fr == nil || fr.pg != pg {
			t.Errorf("page %d left its frame", i)
		}
	}
	if fx.hf.frame(2) != nil || fx.hf.frame(3) != nil {
		t.Error("a frame past the end survived")
	}
	if st := fx.pool.Snapshot(); st.InUse != 2 || st.Dirty != 0 {
		t.Errorf("after Truncate to 2: %+v, want pages 0 and 1 in, clean", st)
	}
	if got := fx.pageStats().Recycled - recycled; got != 0 {
		t.Errorf("%d pages came back; page 2 is out with its reader and page 3's image is not the list's", got)
	}
	if !bytes.Equal(held.Data(), want) {
		t.Error("Truncate recycled a page a reader holds")
	}
	if err := fx.pool.FlushFile(fx.hf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slot3(), disk3) {
		t.Error("a dropped dirty page was written back")
	}
	if _, err := fx.pool.readOne(fx.hf, 2); err == nil {
		t.Error("a read past the end succeeded")
	}
	held.Release()
	if got := fx.pageStats().Recycled - recycled; got != 1 {
		t.Errorf("%d pages came back once the reader let go, want page 2", got)
	}
	if err := fx.pool.Truncate(fx.hf, 3); err == nil {
		t.Error("Truncate past the end succeeded")
	}
}

// (f) An append installs a copy of the tail with the tuple added, as a
// WAL append record does: a reader that still holds the old tail reads
// it unchanged, the next reader sees the tuple, and it survives
// write-back and reopen.
func TestHeapSharedPageTailAppend(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema := testSchema(t)
	rel := seedRelation(t, "r", schema, 256, 3*runTestTuplesPerPage+4) // a partial fourth page
	if err := store.Adopt(rel); err != nil {
		t.Fatal(err)
	}
	hf := store.file("r")
	held, err := store.Pool().readOne(hf, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(held.Data())
	raw, err := relation.EncodeTuple(nil, schema, relation.Tuple{relation.IntVal(777), relation.IntVal(-777)})
	if err != nil {
		t.Fatal(err)
	}
	installTuple(t, rel, raw)
	if !bytes.Equal(held.Data(), before) {
		t.Fatal("the append wrote to the tail page a reader holds")
	}
	held.Release()
	again, err := rel.CopyPage(3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := again.Tuple(again.TupleCount()-1, schema); err != nil || again.TupleCount() != 5 || got[0].Int != 777 {
		t.Fatalf("the next reader sees %d tuples, last %v (%v); want 5 ending in 777", again.TupleCount(), got, err)
	}
	want := again.Marshal()
	if err := store.Pool().FlushFile(hf); err != nil {
		t.Fatal(err)
	}
	store.Close()
	reopened, err := Open(hf.Path(), SchemaHash(schema), uint64(rel.NumPages()))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	pg, err := reopened.ReadPage(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pg.Marshal(), want) {
		t.Error("the appended tuple did not survive write-back and reopen")
	}
}

// Appends installed across page boundaries, through a pool smaller than
// the relation, lay pages out exactly as resident appends do.
func TestHeapStoredAppendsMatchResident(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	schema := testSchema(t)
	stored, resident := seedRelation(t, "r", schema, 256, 7), seedRelation(t, "q", schema, 256, 7)
	if err := store.Adopt(stored); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, schema.TupleLen())
	for i := 0; i < 200; i++ {
		binary.LittleEndian.PutUint64(raw, uint64(i))
		installTuple(t, stored, raw)
		if err := resident.InsertRaw(raw); err != nil {
			t.Fatal(err)
		}
	}
	if stored.NumPages() <= 4 {
		t.Fatalf("%d pages fit the 4-frame pool", stored.NumPages())
	}
	for i := 0; i < stored.NumPages(); i++ {
		got, err := stored.CopyPage(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), resident.Page(i).Marshal()) {
			t.Fatalf("stored page %d differs from the resident one", i)
		}
	}
}

// (h) Frame pages go back a visit at a time, each exactly once: a run that
// evicts frames whose readers have released returns their pages to the
// free list before it reads, and reads into them; the victim a reader
// still holds goes back when that reader lets go.
func TestHeapSharedPageDeadList(t *testing.T) {
	const frames = 64 // cap/8: runs of 8
	fx := newRunFixture(t, 80, frames)
	held, err := fx.pool.readOne(fx.hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < frames; i++ {
		readRelease(t, fx, i)
	}
	before := fx.pageStats()
	var run [8]*relation.Page
	if n, err := fx.pool.ReadRun(fx.hf, frames, run[:]); err != nil || n != 8 {
		t.Fatalf("ReadRun = %d, %v; want 8 pages", n, err)
	}
	after := fx.pageStats()
	if got := fx.reg.Counter("bufpool.evictions"); got != 8 {
		t.Fatalf("%d evictions, want pages 0..7", got)
	}
	if after.Recycled-before.Recycled != 7 || after.Hits-before.Hits != 7 || after.Misses-before.Misses != 1 {
		t.Errorf("free list %+v -> %+v: the 7 released victims should be back and read into, page 0 out with its reader", before, after)
	}
	for i, pg := range run {
		if pageIndex(pg) != frames+i {
			t.Fatalf("run position %d holds page %d", i, pageIndex(pg))
		}
	}
	relation.ReleaseAll(run[:])
	if pageIndex(held) != 0 {
		t.Fatal("the held victim changed under its reader")
	}
	held.Release()
	if st := fx.pageStats(); st.Recycled-after.Recycled != 1 || fx.outstanding() != frames {
		t.Errorf("%+v: page 0 should be back once, the frames' pages out", st)
	}
}

// (g) Relation.Page never releases, so the page it returned reads the
// right bytes after its frame has been evicted and refilled many times
// by readers that do release.
func TestHeapSharedPageOfRelationPage(t *testing.T) {
	fx := newRunFixture(t, 48, 4)
	pg := fx.rel.Page(5)
	want := bytes.Clone(pg.Data())
	for round := 0; round < 3; round++ {
		for i := 0; i < 48; i++ {
			readRelease(t, fx, i)
		}
	}
	if !bytes.Equal(pg.Data(), want) || pageIndex(pg) != 5 {
		t.Error("the page Relation.Page returned changed after its frame was evicted")
	}
	checkNoLoads(t, fx.pool)
}

// Concurrent scans that release every page recycle the same few pages
// among them; each must still see every page of the relation in order
// (a page recycled under a reader would read 0xDB, or race).
func TestHeapSharedPageConcurrentScans(t *testing.T) {
	const pages, frames, scans = 64, 8, 4
	fx := newRunFixture(t, pages, frames)
	var wg sync.WaitGroup
	for s := 0; s < scans; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := 0
			err := fx.rel.EachPage(func(pg *relation.Page) error {
				if got := pageIndex(pg); got != next {
					t.Errorf("position %d holds page %d", next, got)
				}
				next++
				pg.Release()
				return nil
			})
			if err != nil || next != pages {
				t.Errorf("scan saw %d pages, err %v", next, err)
			}
		}()
	}
	wg.Wait()
	checkNoLoads(t, fx.pool)
	if out, st := fx.outstanding(), fx.pool.Snapshot(); out != int64(st.InUse) {
		t.Errorf("%d pages off the list, %d in frames: a reference leaked or was dropped twice", out, st.InUse)
	}
}

// blockingWriter parks whoever writes to it until release is closed.
type blockingWriter struct {
	entered chan struct{}
	once    sync.Once
	release chan struct{}
}

func (w *blockingWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(b), nil
}

// A visit updates the metrics registry without the registry's lock: with
// its mutex held by a stalled export, a hit and an Install that claims a
// frame — which moves the frames_in_use gauge — both get through the pool
// and finish, and the export then reads what they counted.
func TestHeapRegistryCallsOutsidePoolLock(t *testing.T) {
	fx := newRunFixture(t, 8, 4)
	pg, err := fx.pool.readOne(fx.hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	post := pg.Clone()
	pg.Release()
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	exported := make(chan struct{})
	go func() {
		defer close(exported)
		if err := fx.reg.WriteJSONL(io.Writer(w)); err != nil {
			t.Error(err)
		}
	}()
	within(t, "the export's first write", w.entered) // the registry's mutex is now held
	visits := make(chan struct{})
	go func() {
		defer close(visits)
		if pg, err := fx.pool.readOne(fx.hf, 0); err != nil {
			t.Error(err)
		} else {
			pg.Release()
		}
		if err := fx.pool.Install(fx.hf, 8, post); err != nil {
			t.Error(err)
		}
	}()
	within(t, "a hit and an Install while the registry is held", visits)
	close(w.release)
	within(t, "the export", exported)
	if hits := fx.reg.Counter("bufpool.hits"); hits != 1 {
		t.Errorf("bufpool.hits = %d, want 1", hits)
	}
	if inUse, _ := fx.reg.Gauge("bufpool.frames_in_use"); inUse != 2 || int(inUse) != fx.pool.Snapshot().InUse {
		t.Errorf("bufpool.frames_in_use = %v, want 2 (the snapshot's %d)", inUse, fx.pool.Snapshot().InUse)
	}
}
