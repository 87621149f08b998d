package heap

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

// DefaultFrames is the pool budget used when a caller passes a
// non-positive frame count.
const DefaultFrames = 1024

// Pool is the buffer manager — the paper's multiport disk cache between
// mass storage (heap files) and the engines' IC-level memory. It holds a
// fixed budget of frames, each the home of one page of one file, with
// dirty tracking and CLOCK second-chance eviction that writes dirty
// victims back to their heap file before reuse. Residency is an index,
// not a hash: each File lists the frame of every page it has in the pool
// (File.frames). The unit of a visit is a run of consecutive pages
// (ReadRun); one page is a run of one.
//
// A page is held by a counted reference and nothing else. The pages the
// pool reads come from the process's page free list (relation.GetRun):
// the frame holds one reference, ReadRun adds one for every page it hands
// out, and the page goes back to the list when the last holder lets go —
// the frame at eviction, Truncate or Install over it, the reader when it
// has read the page. Pages come and go a run at a time: a run's misses
// take their pages with one relation.GetRun, and
// what the frames let go of during a visit waits on the visit's dead list
// (tally) for one relation.ReleaseAll after the unlock, so nothing takes
// the free list's lock under the pool's. Nobody pins a frame: every
// frame that holds a page may be evicted at any moment, and a slow reader
// keeps reading its page after its frame has been refilled, because the
// refill takes another page from the list, never one anyone can still
// reach. A reader that never releases leaves its page to the collector.
// Writers never write to a page a frame holds: a mutation installs a new
// post-image (Install), and the admission scheduler gives every relation
// a single writer. A File is cached by one Pool.
//
// Concurrency: one mutex covers the ring, every file's index and the
// spare read buffers, and it is multiport for hits — a miss's disk read,
// CRC and decode happen outside it, and no visit takes the metrics
// registry's lock under it: counters and the in-use gauge are lock-free
// handles (done). ReadRun claims a frame for each missing page
// under the lock (in the index, marked loading with the claim's number,
// no page yet), reads with the lock released, and takes the lock again to
// publish the pages and wake whoever waited (loaded, the pool's one
// condition variable). A loading frame is the one kind eviction passes
// over. Whoever finds a page loading — a reader at the head of its run,
// Install, Truncate — or finds every frame loading waits for a publish,
// holding no claimed frame of its own, and a loader never waits before it
// publishes, so waits cannot form a cycle and a miss never fails for want
// of a frame. What stays under the lock is the dirty victim's write-back
// (freeFrameLocked) and FlushFile: a write-back outside it could race
// with a re-dirtying writer and lose the newer image, and the workloads
// that miss have no dirty pages to write (a background cleaner is
// ROADMAP's).
type Pool struct {
	mu     sync.Mutex // lock order: Store.mu -> Pool.mu, never the reverse
	loaded sync.Cond  // on mu: a loading frame was published or released
	cap    int
	ring   []*frame
	hand   int
	// inUse counts frames that hold or are loading a page and loading those
	// being loaded, kept on every edge so the gauge and the read-ahead rule
	// cost nothing per visit; Snapshot recounts both by walking the ring.
	// claims numbers the runs that load, to mark their frames.
	inUse, loading int
	claims         uint64
	// bufs are idle multi-slot read buffers, one per loader that was
	// recently reading at once (at most maxIdleBufs): a run's misses are
	// read into one instead of buying a buffer per run, and unlike a
	// sync.Pool's they survive garbage collection.
	bufs [][]byte

	reg *obs.Registry
	// counts are the bufpool.* counters in tally order, and framesInUse the
	// gauge of inUse, set under mu; both are resolved once, so a visit
	// updates them without the registry's lock.
	counts      [len(countNames)]*atomic.Int64
	framesInUse *obs.Gauge
	epoch       time.Time
}

var countNames = [...]string{"bufpool.hits", "bufpool.misses", "bufpool.reads", "bufpool.evictions", "bufpool.writebacks"}

// maxIdleBufs bounds Pool.bufs; a loader that finds none buys its own.
// Eight serve heap/scan-concurrent/8's loaders: at four, a buffer bought
// per op for each loader past the fourth was most of that row's allocs.
const maxIdleBufs = 8

type frameKey struct {
	f    *File
	page int
}

// frame is one slot of the pool. An empty frame (zero key, no page) sits
// in the ring but in no file's index; a loading frame is in its file's
// index, marked with the number of the ReadRun that claimed it, and has no
// page until that ReadRun publishes it. The frame holds one reference on
// its page.
type frame struct {
	key    frameKey
	pg     *relation.Page
	loader uint64 // the claim loading the page, 0 once it is published
	ref    bool   // CLOCK second-chance bit
	dirty  bool
}

// tally is one visit's account, settled when the visit ends (done): its
// counter deltas, in pages — reads counts physical reads, each covering
// one or more missed pages — and its dead list, the pages frames let go
// of under the lock, released after it. The list lives in the visit's
// frame, so a visit allocates none; a Truncate of a long file spills.
type tally struct {
	hits, misses, reads, evictions, writebacks int64

	dead  [relation.MaxRun]*relation.Page
	nDead int
	spill []*relation.Page
}

// drop puts a page a frame let go of on the dead list.
func (t *tally) drop(pg *relation.Page) {
	switch {
	case t.nDead < len(t.dead):
		t.dead[t.nDead] = pg
		t.nDead++
	default:
		t.spill = append(t.spill, pg)
	}
}

// release lets go of the dead list, in one batch, and empties it; the
// caller holds no lock.
func (t *tally) release() {
	relation.ReleaseAll(t.dead[:t.nDead])
	relation.ReleaseAll(t.spill)
	t.nDead, t.spill = 0, nil
}

// NewPool creates a pool with the given frame budget (DefaultFrames
// if frames <= 0). The observer may be nil; when it carries a metrics
// registry the pool maintains bufpool.* counters and gauges and
// charges its I/O time to the bufpool.busy_us timeline.
func NewPool(frames int, o *obs.Observer) *Pool {
	if frames <= 0 {
		frames = DefaultFrames
	}
	p := &Pool{
		cap:   frames,
		reg:   o.Registry(),
		epoch: time.Now(),
	}
	p.loaded.L = &p.mu
	for i, name := range countNames {
		p.counts[i] = p.reg.CounterHandle(name)
	}
	p.framesInUse = p.reg.GaugeHandle("bufpool.frames_in_use")
	p.reg.GaugeHandle("bufpool.frames").Set(float64(frames))
	return p
}

// Cap returns the frame budget.
func (p *Pool) Cap() int { return p.cap }

// ReadRun reads pages first, first+1, ... of f into dst and returns how
// many: min(len(dst), cap/8, pages left), at least one, or fewer as below.
// Resident pages are handed out where they are. Missing pages are read
// from disk — each gap of consecutive missing slots with one read, outside
// the pool's lock — into pages from the free list and frames freed by
// eviction when the pool is full. The first page is owed a frame: while
// every frame is loading, ReadRun waits for one. The rest are taken ahead
// of need, so only while fewer than half the frames are loading — with
// many scans at once runs shorten to one page — and only up to a page
// another reader is loading; a page loading at the head of the run is
// waited for. The cap/8 clip and the cap/2 rule are the pool's budget,
// not a run length (relation.EachRun decides that, in as many visits as
// the budget needs): measured without the clip, heap/scan-cold got faster
// alone but heap/scan-concurrent/2 and /8 got 25–30 % slower, as a few
// scans' read-ahead crowded out the rest. Every page comes with a
// reference for the caller to release once it has read it. On error no
// reference is handed out, no page of the run has been published and the
// pages read for it are back on the list.
func (p *Pool) ReadRun(f *File, first int, dst []*relation.Page) (int, error) {
	pages := f.NumPages()
	if first < 0 || first >= pages {
		return 0, fmt.Errorf("heap: %s: read of page %d beyond %d pages", filepath.Base(f.path), first, pages)
	}
	n := min(len(dst), max(p.cap/8, 1), pages-first)

	var t tally
	p.mu.Lock()
	p.claims++
	claim := p.claims
	for k := 0; k < n; k++ {
		fr := f.frame(first + k)
		if k > 0 && (p.loading >= p.cap/2 || fr != nil && fr.loader != 0) {
			n = k
			break
		}
		if fr != nil && fr.loader != 0 { // the head of the run is loading
			p.loaded.Wait()
			k--
			continue
		}
		if fr != nil {
			fr.ref = true
			fr.pg.Retain()
			dst[k] = fr.pg
			t.hits++
			continue
		}
		fr, err := p.freeFrameLocked(&t)
		if fr == nil && err == nil && k == 0 { // every frame is loading
			p.loaded.Wait()
			k--
			continue
		}
		if fr == nil {
			if k == 0 {
				p.done(&t)
				return 0, err
			}
			// Read-ahead is not owed a frame: the run ends here, and if the
			// victim's write-back keeps failing the run that starts at this
			// page reports it.
			n = k
			break
		}
		fr.ref, fr.loader = true, claim
		p.claimLocked(fr, f, first+k)
		p.loading++
		dst[k] = nil
		t.misses++
	}
	if t.misses == 0 {
		p.done(&t)
		return n, nil
	}
	buf := p.takeBufLocked(int64(n) * f.slotSize)
	p.mu.Unlock()
	t.release() // the victims' pages, back in time to be this run's

	// The claimed slots are the nil entries of dst[:n]; each maximal gap
	// of them is one read, into a run of pages from the free list.
	var err error
	start := time.Since(p.epoch)
	for k := 0; k < n && err == nil; {
		if dst[k] != nil {
			k++
			continue
		}
		end := k + 1
		for end < n && dst[end] == nil {
			end++
		}
		if err = relation.GetRun(f.pageSize, f.tupleLen, dst[k:end]); err == nil {
			err = f.ReadPages(first+k, dst[k:end], buf)
			t.reads++
		}
		k = end
	}
	p.busy(start)

	p.mu.Lock()
	if len(p.bufs) < maxIdleBufs {
		p.bufs = append(p.bufs, buf)
	}
	// This run's claims are the frames it marked; a hit's frame may have
	// been evicted meanwhile and even claimed by another run, which its mark
	// tells apart.
	for k := 0; k < n; k++ {
		fr := f.frame(first + k)
		switch {
		case fr == nil || fr.loader != claim:
		case err == nil: // publish: the frame's reference, and the caller's
			fr.pg, fr.loader = dst[k], 0
			dst[k].Retain()
			p.loading--
		default: // release the claim: the frame leaves the index empty
			p.vacateLocked(fr, &t)
		}
	}
	if err != nil { // the run's references go on the dead list too
		for _, pg := range dst[:n] {
			t.drop(pg)
		}
		clear(dst[:n])
		t.hits, t.misses, n = 0, 0, 0
	}
	p.loaded.Broadcast()
	p.done(&t)
	return n, err
}

// claimLocked makes an empty frame the home of page i of f, growing the
// file's index to reach it; a file's first frame claims the page budget
// its frames would hold (relation.RaisePageBudget).
func (p *Pool) claimLocked(fr *frame, f *File, i int) {
	if f.frames == nil {
		relation.RaisePageBudget(int64(p.cap) * int64(f.pageSize))
	}
	for i >= len(f.frames) {
		f.frames = append(f.frames, nil)
	}
	fr.key, f.frames[i] = frameKey{f, i}, fr
	p.inUse++
}

// vacateLocked empties a frame: it leaves its file's index and lets go
// of its page onto the visit's dead list, from which the page returns to
// the free list unless a reader holds it.
func (p *Pool) vacateLocked(fr *frame, t *tally) {
	if fr.loader != 0 {
		p.loading--
	}
	fr.key.f.frames[fr.key.page] = nil
	t.drop(fr.pg)
	p.inUse--
	*fr = frame{}
}

// takeBufLocked lends a read buffer of size bytes: the idle one on top
// if it is large enough, else a new one (a too-small buffer is dropped,
// so the idle list converges on full-run buffers). ReadRun puts it back.
func (p *Pool) takeBufLocked(size int64) []byte {
	if k := len(p.bufs) - 1; k >= 0 {
		buf := p.bufs[k]
		p.bufs = p.bufs[:k]
		if int64(cap(buf)) >= size {
			return buf[:size]
		}
	}
	return make([]byte, size)
}

// Install places a full post-image of page i of f into the pool,
// dirty: the one mutation primitive (WAL records, live and on replay). The
// frame retains pg, and the caller must not write to it again. i may
// extend the file by exactly one page. The scheduler's write exclusion
// keeps readers of f away while its writer installs; a page found
// loading all the same is waited for, and so is a frame when every frame
// is loading.
func (p *Pool) Install(f *File, i int, pg *relation.Page) error {
	p.mu.Lock()
	var t tally
	var err error
	fr := f.frame(i)
	for fr == nil || fr.loader != 0 {
		if fr == nil {
			if fr, err = p.freeFrameLocked(&t); fr != nil || err != nil {
				break
			}
		}
		p.loaded.Wait()
		fr = f.frame(i)
	}
	if err == nil {
		err = f.NotePage(i, pg.TupleCount())
	}
	if err == nil {
		if fr.key.f == nil {
			p.claimLocked(fr, f, i)
		}
		// The frame's reference moves from the page it held to pg.
		pg.Retain()
		t.drop(fr.pg)
		fr.pg, fr.ref, fr.dirty = pg, true, true
	}
	p.done(&t)
	return err
}

// freeFrameLocked returns an unused frame: grows the ring while under
// budget, otherwise runs the CLOCK hand over the ring — skipping loading
// frames, clearing second-chance bits, writing back dirty victims — for
// at most two sweeps. An empty frame (a failed run's, a truncated page's) is
// taken as it is: nothing is displaced, so nothing is counted. With every
// frame loading it returns nil and no error: the caller waits for a
// publish.
func (p *Pool) freeFrameLocked(t *tally) (*frame, error) {
	if len(p.ring) < p.cap {
		fr := &frame{}
		p.ring = append(p.ring, fr)
		return fr, nil
	}
	for pass := 0; pass < 2*len(p.ring); pass++ {
		fr := p.ring[p.hand]
		p.hand = (p.hand + 1) % len(p.ring)
		if fr.loader != 0 {
			continue
		}
		if fr.pg == nil {
			return fr, nil
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		if fr.dirty {
			start := time.Since(p.epoch)
			err := fr.key.f.WritePage(fr.key.page, fr.pg)
			p.busy(start)
			if err != nil {
				return nil, err
			}
			t.writebacks++
		}
		p.vacateLocked(fr, t)
		t.evictions++
		return fr, nil
	}
	return nil, nil
}

// FlushFile writes back every dirty frame belonging to f and marks
// them clean. Frames stay resident (a checkpoint does not chill the
// cache). A loading frame is clean by construction and is passed over.
func (p *Pool) FlushFile(f *File) error {
	p.mu.Lock()
	var t tally
	defer p.done(&t)
	for i, fr := range f.frames {
		if fr == nil || !fr.dirty {
			continue
		}
		start := time.Since(p.epoch)
		err := f.WritePage(i, fr.pg)
		p.busy(start)
		if err != nil {
			return err
		}
		t.writebacks++
		fr.dirty = false
	}
	return nil
}

// Truncate ends f at n pages: it drops every frame of f from page n on,
// dirty or not, without writing it back — a WAL record ended the
// relation before those pages, so their content is dead — and then the
// file's counts past n (File.truncate). The slots stay on disk until the
// next checkpoint trims them. The scheduler's write exclusion keeps
// readers of f away meanwhile; a page past n found loading all the same
// is waited for, so no loader publishes into a dropped frame. A dropped
// page a reader still holds stays the reader's, and nobody writes to it.
func (p *Pool) Truncate(f *File, n int) error {
	p.mu.Lock()
	for p.loadingLocked(f.frames[min(n, len(f.frames)):]) {
		p.loaded.Wait()
	}
	var t tally
	keep := min(n, len(f.frames))
	for _, fr := range f.frames[keep:] {
		if fr != nil {
			p.vacateLocked(fr, &t)
		}
	}
	f.frames = f.frames[:keep]
	err := f.truncate(n)
	p.done(&t)
	return err
}

// loadingLocked reports whether any of frames is loading a page.
func (p *Pool) loadingLocked(frames []*frame) bool {
	for _, fr := range frames {
		if fr != nil && fr.loader != 0 {
			return true
		}
	}
	return false
}

// Stats is a point-in-time snapshot of the pool for tests and audits.
type Stats struct {
	Cap, InUse, Loading, Dirty int
}

// Snapshot returns current pool occupancy. A loading frame is in use.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{Cap: p.cap}
	for _, fr := range p.ring {
		if fr.key.f != nil {
			st.InUse++
		}
		if fr.loader != 0 {
			st.Loading++
		}
		if fr.dirty {
			st.Dirty++
		}
	}
	return st
}

// done ends a visit that holds mu: it sets the frames_in_use gauge,
// unlocks, and only then releases the visit's dead list and adds its
// counts.
func (p *Pool) done(t *tally) {
	p.framesInUse.Set(float64(p.inUse))
	p.mu.Unlock()
	t.release()
	for i, d := range [...]int64{t.hits, t.misses, t.reads, t.evictions, t.writebacks} {
		if d != 0 {
			p.counts[i].Add(d)
		}
	}
}

func (p *Pool) busy(start time.Duration) {
	if p.reg != nil {
		p.reg.AddBusy("bufpool.busy_us", start, time.Since(p.epoch)-start)
	}
}
