package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

// The run path: Pool.ReadRun visits the pool once per run of pages and
// reads each gap of missing slots with one ReadAt, outside the pool's
// lock. These tests are interleaving-sensitive by nature; CI repeats
// them under -race.

const runTestTuplesPerPage = 15 // 16-byte tuples in 256-byte pages

// runFixture is one stored relation of the given length behind a pool of
// the given size, with every physical read recorded.
type runFixture struct {
	store *Store
	pool  *Pool
	reg   *obs.Registry
	rel   *relation.Relation
	hf    *File
	// pages0 is the page free list's counters once the fixture was made.
	pages0 relation.PoolStats

	mu    sync.Mutex
	reads [][2]int // first slot, slot count
}

func newRunFixture(t *testing.T, pages, frames int) *runFixture {
	t.Helper()
	fx := &runFixture{reg: obs.NewRegistry(0)}
	store, err := OpenStore(t.TempDir(), frames, obs.New(nil, fx.reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	fx.store, fx.pool = store, store.Pool()
	fx.rel, fx.hf = fx.adopt(t, "r", pages)
	takeFreePages(fx.hf.pageSize)
	fx.pages0 = relation.PageStats()
	fx.hf.readHook = func(first, n int) {
		fx.mu.Lock()
		fx.reads = append(fx.reads, [2]int{first, n})
		fx.mu.Unlock()
		runtime.Gosched() // widen the window other goroutines can move in
	}
	return fx
}

// adopt stores a relation whose page i starts with the tuple (i*15, ...).
func (fx *runFixture) adopt(t *testing.T, name string, pages int) (*relation.Relation, *File) {
	t.Helper()
	rel := seedRelation(t, name, testSchema(t), 256, pages*runTestTuplesPerPage)
	if err := fx.store.Adopt(rel); err != nil {
		t.Fatal(err)
	}
	if rel.NumPages() != pages {
		t.Fatalf("relation %s has %d pages, want %d", name, rel.NumPages(), pages)
	}
	return rel, fx.store.file(name)
}

func (fx *runFixture) takeReads() [][2]int {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	out := fx.reads
	fx.reads = nil
	return out
}

// pageIndex recovers which page of a fixture relation pg is.
func pageIndex(pg *relation.Page) int {
	return int(binary.LittleEndian.Uint64(pg.RawTuple(0))) / runTestTuplesPerPage
}

// scanOrder walks rel and returns the page indices in the order seen.
func scanOrder(rel *relation.Relation) ([]int, error) {
	var order []int
	err := rel.EachPage(func(pg *relation.Page) error {
		order = append(order, pageIndex(pg))
		return nil
	})
	return order, err
}

func checkInOrder(t *testing.T, who string, order []int, pages int) {
	t.Helper()
	if len(order) != pages {
		t.Errorf("%s saw %d pages, want %d", who, len(order), pages)
		return
	}
	for i, got := range order {
		if got != i {
			t.Errorf("%s: position %d holds page %d", who, i, got)
			return
		}
	}
}

func checkNoLoads(t *testing.T, pool *Pool) {
	t.Helper()
	if st := pool.Snapshot(); st.Loading != 0 {
		t.Errorf("frames left loading: %+v", st)
	}
}

// holdRead makes the next physical read of hf announce itself on entered
// and then wait for release to be closed.
func holdRead(hf *File) (entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	hf.readHook = func(first, n int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	return entered, release
}

// within fails the test if done is not closed soon: a hang shows up as a
// failure here rather than as the package's ten-minute timeout.
func within(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// (a) A hit is not stalled by a miss: while a read of one file is held
// open, a resident page of another file can be read.
func TestHeapRunHitNotStalledByMiss(t *testing.T) {
	fx := newRunFixture(t, 4, 8)
	_, other := fx.adopt(t, "other", 4)
	if _, err := fx.pool.readOne(other, 0); err != nil {
		t.Fatal(err)
	}

	entered, release := holdRead(fx.hf)
	missDone := make(chan struct{})
	go func() {
		defer close(missDone)
		if _, err := fx.pool.readOne(fx.hf, 0); err != nil {
			t.Errorf("miss: %v", err)
			return
		}
	}()
	within(t, "the miss reaching its read", entered)

	hitDone := make(chan struct{})
	go func() {
		defer close(hitDone)
		if _, err := fx.pool.readOne(other, 0); err != nil {
			t.Errorf("hit: %v", err)
			return
		}
	}()
	within(t, "a hit beside a miss that is reading", hitDone)
	if st := fx.pool.Snapshot(); st.InUse != 2 || st.Loading != 1 {
		t.Errorf("with the miss in flight: %+v, want the loading frame in use and loading", st)
	}
	close(release)
	within(t, "the miss", missDone)
	checkNoLoads(t, fx.pool)
}

// (b) Concurrent scans of one file through pools of 4, 16 and 64 frames
// (runs of 1, 2 and 8): each sees every page once, in order; a slot is
// read once per residency — what one scan loads the others find or wait
// for — and no frame is left loading.
func TestHeapRunScansOfOneFile(t *testing.T) {
	const pages, scanners = 60, 3
	for _, frames := range []int{4, 16, 64} {
		t.Run(fmt.Sprintf("%d frames", frames), func(t *testing.T) {
			fx := newRunFixture(t, pages, frames)
			var wg sync.WaitGroup
			orders := make([][]int, scanners)
			for s := range orders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if orders[s], err = scanOrder(fx.rel); err != nil {
						t.Errorf("scan %d: %v", s, err)
					}
				}()
			}
			wg.Wait()
			for s, order := range orders {
				checkInOrder(t, fmt.Sprintf("scan %d", s), order, pages)
			}
			slots := 0
			for _, r := range fx.takeReads() {
				slots += r[1]
			}
			misses, evictions := fx.reg.Counter("bufpool.misses"), fx.reg.Counter("bufpool.evictions")
			st := fx.pool.Snapshot()
			if int64(slots) != misses || misses-evictions != int64(st.InUse) {
				t.Errorf("%d slots read, %d misses, %d evictions, %d frames in use: a page was read while resident",
					slots, misses, evictions, st.InUse)
			}
			if hits := fx.reg.Counter("bufpool.hits"); hits+misses != scanners*pages {
				t.Errorf("%d hits + %d misses, want %d page visits", hits, misses, scanners*pages)
			}
			checkNoLoads(t, fx.pool)
		})
	}
}

// (c) Run length is derived from the pool: an eighth of the frames, one
// page when that is less; read-ahead stops once half the frames are
// loading (TestPoolWaitsForAFrame has every frame loading).
func TestHeapRunLength(t *testing.T) {
	longest := func(reads [][2]int) int {
		m := 0
		for _, r := range reads {
			m = max(m, r[1])
		}
		return m
	}
	t.Run("64 frames", func(t *testing.T) {
		fx := newRunFixture(t, 400, 64)
		order, err := scanOrder(fx.rel)
		if err != nil {
			t.Fatal(err)
		}
		checkInOrder(t, "scan", order, 400)
		reads := fx.takeReads()
		if longest(reads) != 8 {
			t.Errorf("longest read is %d slots, want 8", longest(reads))
		}
		// 1 + 2 + 4 + 8×49 + the last run's single page.
		if len(reads) > 60 {
			t.Errorf("400 pages took %d reads, want at most 60", len(reads))
		}
		if got := fx.reg.Counter("bufpool.reads"); got != int64(len(reads)) {
			t.Errorf("bufpool.reads = %d, the file saw %d", got, len(reads))
		}
		if got := fx.reg.Counter("bufpool.misses"); got != 400 {
			t.Errorf("bufpool.misses = %d, want 400 pages", got)
		}
	})
	t.Run("4 frames", func(t *testing.T) {
		fx := newRunFixture(t, 40, 4)
		if _, err := scanOrder(fx.rel); err != nil {
			t.Fatal(err)
		}
		if reads := fx.takeReads(); longest(reads) != 1 || len(reads) != 40 {
			t.Errorf("%d reads, longest %d slots; want 40 runs of one", len(reads), longest(reads))
		}
	})
	t.Run("read-ahead budget", func(t *testing.T) {
		fx := newRunFixture(t, 40, 16) // runs of 2, read-ahead below 8 loading
		entered, release := make(chan struct{}, 8), make(chan struct{})
		fx.hf.readHook = func(first, n int) {
			if first >= 20 {
				entered <- struct{}{}
				<-release
			}
		}
		loads := make(chan struct{}, 8)
		for i := 20; i < 28; i++ {
			go func() {
				defer func() { loads <- struct{}{} }()
				if _, err := fx.pool.readOne(fx.hf, i); err != nil {
					t.Error(err)
				}
			}()
			within(t, "a load reaching its read", entered)
		}
		var run [2]*relation.Page
		if n, err := fx.pool.ReadRun(fx.hf, 0, run[:]); err != nil || n != 1 {
			t.Fatalf("with half the frames loading ReadRun = %d, %v; want the first page alone", n, err)
		}
		close(release)
		for i := 0; i < 8; i++ {
			within(t, "a load", loads)
		}
		if n, err := fx.pool.ReadRun(fx.hf, 2, run[:]); err != nil || n != 2 {
			t.Fatalf("with nothing loading ReadRun = %d, %v; want 2", n, err)
		}
		checkNoLoads(t, fx.pool)
	})
}

// (d) Pages 0, 3 and 4 of a run of eight are resident: the gaps [1,2] and
// [5..7] take one read each, and the run counts 3 hits and 5 misses.
func TestHeapRunGaps(t *testing.T) {
	fx := newRunFixture(t, 20, 64)
	for _, i := range []int{0, 3, 4} {
		if _, err := fx.pool.readOne(fx.hf, i); err != nil {
			t.Fatal(err)
		}
	}
	fx.takeReads()
	hits, misses := fx.reg.Counter("bufpool.hits"), fx.reg.Counter("bufpool.misses")
	var run [8]*relation.Page
	n, err := fx.pool.ReadRun(fx.hf, 0, run[:])
	if err != nil || n != 8 {
		t.Fatalf("ReadRun = %d, %v; want 8", n, err)
	}
	for i, pg := range run {
		if pageIndex(pg) != i {
			t.Errorf("run[%d] is page %d", i, pageIndex(pg))
		}
	}
	if reads := fx.takeReads(); len(reads) != 2 || reads[0] != [2]int{1, 2} || reads[1] != [2]int{5, 3} {
		t.Errorf("reads %v, want [1,2] and [5..7]", reads)
	}
	if h, m := fx.reg.Counter("bufpool.hits")-hits, fx.reg.Counter("bufpool.misses")-misses; h != 3 || m != 5 {
		t.Errorf("run counted %d hits, %d misses; want 3, 5", h, m)
	}
	checkNoLoads(t, fx.pool)
}

// (e) A walk that stops at its first page has read one slot.
func TestHeapRunEarlyStop(t *testing.T) {
	fx := newRunFixture(t, 40, 64)
	seen := 0
	if err := fx.rel.Each(func(relation.Tuple) bool { seen++; return false }); err != nil {
		t.Fatal(err)
	}
	if reads := fx.takeReads(); seen != 1 || len(reads) != 1 || reads[0] != [2]int{0, 1} {
		t.Errorf("saw %d tuples with reads %v, want one read of slot 0", seen, reads)
	}
	checkNoLoads(t, fx.pool)
}

// (f) Install and Truncate wait for a page that is loading; FlushFile and
// Snapshot pass over it.
func TestHeapRunInstallWaitsForLoad(t *testing.T) {
	fx := newRunFixture(t, 4, 8)
	entered, release := holdRead(fx.hf)
	var loaded *relation.Page
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		var err error
		if loaded, err = fx.pool.readOne(fx.hf, 0); err != nil {
			t.Errorf("load: %v", err)
			return
		}
	}()
	within(t, "the load reaching its read", entered)
	if err := fx.pool.FlushFile(fx.hf); err != nil {
		t.Fatalf("FlushFile beside a loading frame: %v", err)
	}

	fresh := relation.MustNewPage(256, testSchema(t).TupleLen())
	raw := make([]byte, fresh.TupleLen())
	binary.LittleEndian.PutUint64(raw, 4242)
	if err := fresh.AppendRaw(raw); err != nil {
		t.Fatal(err)
	}
	installDone := make(chan struct{})
	go func() {
		defer close(installDone)
		if err := fx.pool.Install(fx.hf, 0, fresh); err != nil {
			t.Errorf("Install: %v", err)
		}
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let Install find the frame loading, most times
	}
	close(release)
	within(t, "the load", loadDone)
	within(t, "Install", installDone)
	if loaded != nil && pageIndex(loaded) != 0 {
		t.Errorf("the loader got page %d", pageIndex(loaded))
	}
	// Had Install not waited, the load's publish would have put the disk
	// image over the installed one.
	got, err := fx.pool.readOne(fx.hf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Error("the frame does not hold the installed page")
	}
	if st := fx.pool.Snapshot(); st.Dirty != 1 || st.Loading != 0 {
		t.Errorf("%+v, want the installed page dirty and nothing loading", st)
	}
}

func TestHeapRunTruncateWaitsForLoad(t *testing.T) {
	fx := newRunFixture(t, 4, 8)
	entered, release := holdRead(fx.hf)
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		if pg, err := fx.pool.readOne(fx.hf, 0); err != nil || pageIndex(pg) != 0 {
			t.Errorf("load: page %v, err %v", pg, err)
		}
	}()
	within(t, "the load reaching its read", entered)
	dropDone := make(chan struct{})
	go func() {
		defer close(dropDone)
		// Publishing into a dropped frame would panic.
		if err := fx.pool.Truncate(fx.hf, 0); err != nil {
			t.Errorf("Truncate: %v", err)
		}
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let Truncate find the frame loading, most times
	}
	close(release)
	within(t, "the load", loadDone)
	within(t, "Truncate", dropDone)
	if st := fx.pool.Snapshot(); st.InUse != 0 || st.Loading != 0 || fx.hf.NumPages() != 0 {
		t.Errorf("after Truncate to 0: %+v, %d pages", st, fx.hf.NumPages())
	}
}

// flipSlotByte toggles one payload byte of slot i behind the file's back.
func flipSlotByte(t *testing.T, hf *File, i int) {
	t.Helper()
	f, err := os.OpenFile(hf.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := SlotOffset(hf.pageSize, i) + slotHeaderLen + 20
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// A run with a corrupt slot publishes none of its pages, names the slot,
// leaves its claimed frames empty and no reference behind — every
// page decoded for it, the good slot's too, is back on the free list;
// taking an empty frame later is not an eviction.
func TestHeapRunCorruptSlot(t *testing.T) {
	const pages, frames = 40, 16
	fx := newRunFixture(t, pages, frames)
	// Slow start 1, 2, 2 ...: the runs are [0] [1,2] [3,4] [5,6] [7,8].
	flipSlotByte(t, fx.hf, 8)
	order, err := scanOrder(fx.rel)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "slot 8") {
		t.Fatalf("scan over a corrupt slot: %v, want ErrCorrupt naming slot 8", err)
	}
	checkInOrder(t, "scan up to the corrupt run", order, 7)
	checkNoLoads(t, fx.pool)
	if st := fx.pool.Snapshot(); st.InUse != 7 {
		t.Errorf("%+v, want pages 0..6 resident and neither page of the failed run", st)
	}
	if st := fx.pageStats(); st.Recycled != 2 || fx.outstanding() != 7 {
		t.Errorf("free list %+v: both pages of the failed run should be back and pages 0..6 out", st)
	}
	misses := fx.reg.Counter("bufpool.misses")
	if _, err := fx.pool.readOne(fx.hf, 7); err != nil {
		t.Fatalf("the good page of the failed run: %v", err)
	}
	if got := fx.reg.Counter("bufpool.misses") - misses; got != 1 {
		t.Errorf("page 7 counted %d misses: the failed run published it", got)
	}

	flipSlotByte(t, fx.hf, 8) // repair
	for i := 0; i < 2; i++ {  // the second scan runs the full pool round
		order, err = scanOrder(fx.rel)
		if err != nil {
			t.Fatalf("scan after repair: %v", err)
		}
		checkInOrder(t, "scan after repair", order, pages)
	}
	st := fx.pool.Snapshot()
	misses, evictions := fx.reg.Counter("bufpool.misses"), fx.reg.Counter("bufpool.evictions")
	if st.InUse != frames || misses-evictions != int64(st.InUse) {
		t.Errorf("%d misses, %d evictions, %+v: evictions must count displaced pages only", misses, evictions, st)
	}
	checkNoLoads(t, fx.pool)
}
