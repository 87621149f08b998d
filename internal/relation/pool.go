package relation

import (
	"sync"
	"sync/atomic"
)

// PagePool is the free list of intermediate pages: the engines' IC
// memory, bought once and handed out and taken back from then on. The
// engines produce a fresh page at every operator hop and it dies as
// soon as the consumer has read it, so recycling removes the dominant
// allocation on the hot execution path.
//
// The list is one stack per page size under one mutex, taken once per
// run: GetRun hands out a run of pages and ReleaseAll takes one back, and
// Get and Release are their runs of one. A page's payload always has the
// capacity of its size (NewPage), so a recycled page serves any tuple
// length; the stacks are the pool's own, so a page put back stays until
// it is taken again — the collector never empties them — and the
// counters are a function of the Get/Release sequence alone. The bytes
// held free never exceed Budget(): a last release beyond it drops the
// page.
//
// Ownership has one rule: a page from Get counts its holders. It comes
// back with one reference, the caller's. Whoever it is handed to with a
// reference of its own — a buffer pool's frame, each reader the frame
// lent it to, a relation that retained it — lets go of it exactly once
// (Page.Release, or ReleaseAll with others), and the last one out puts it
// back on the list of the pool it came from. A holder that has released
// no longer reaches the page: not as a reader, not through a cache keyed
// by its identity. Retain and Release do nothing to a page no pool handed
// out (a catalog page, a decoded blob): the collector takes those. A nil
// *PagePool is valid and degrades to plain allocation, so pooling is a
// pure opt-in.
type PagePool struct {
	mu        sync.Mutex
	free      []freeStack // one per page size, found by a scan: there are few sizes
	freeBytes int64       // sum of the free pages' sizes, <= Budget()
	hits      int64       // Gets served from the free list
	misses    int64       // Gets that allocated fresh
	recycled  int64       // last releases the free list kept

	budget atomic.Int64 // page-memory budget in bytes (0 = default)
}

type freeStack struct {
	size  int
	pages []*Page
}

// NewPagePool returns an empty pool.
func NewPagePool() *PagePool { return &PagePool{} }

// stackLocked returns the free stack of pages of size bytes.
func (p *PagePool) stackLocked(size int) *[]*Page {
	for i := range p.free {
		if p.free[i].size == size {
			return &p.free[i].pages
		}
	}
	p.free = append(p.free, freeStack{size: size})
	return &p.free[len(p.free)-1].pages
}

// DefaultPoolBudget is the page-memory budget, in bytes, of a pool on
// which none has been set: the most its free list holds.
const DefaultPoolBudget = 4 << 20

// SetBudget sets the pool's page-memory budget in bytes. Zero or
// negative restores the default. The budget bounds the free list; it
// does not cap Get, and pages already free stay until they are taken.
func (p *PagePool) SetBudget(bytes int64) {
	if p == nil {
		return
	}
	p.budget.Store(bytes)
}

// Budget returns the pool's page-memory budget in bytes. A nil pool, or
// a pool with no budget set, reports DefaultPoolBudget.
func (p *PagePool) Budget() int64 {
	if p == nil {
		return DefaultPoolBudget
	}
	if b := p.budget.Load(); b > 0 {
		return b
	}
	return DefaultPoolBudget
}

// PoolStats is a point-in-time copy of a pool's counters.
type PoolStats struct {
	Hits      int64 // pages served from the free list
	Misses    int64 // pages freshly allocated
	Recycled  int64 // pages released by their last holder and kept for reuse
	FreeBytes int64 // page memory idle on the free list right now
}

// Stats returns the pool's counters. A nil pool reports zeros.
func (p *PagePool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Recycled: p.recycled, FreeBytes: p.freeBytes}
}

// Get returns an empty page of the given size for tuples of the given
// length, reusing a free page of that size when there is one: GetRun for
// one page.
func (p *PagePool) Get(pageSize, tupleLen int) (*Page, error) {
	var one [1]*Page
	if err := p.GetRun(pageSize, tupleLen, one[:]); err != nil {
		return nil, err
	}
	return one[0], nil
}

// GetRun fills dst with empty pages of the given size for tuples of the
// given length — free pages of that size first, fresh ones for the rest —
// under one acquisition of the pool's lock. Each page counts one
// reference, the caller's, and returns to this pool when the last
// reference is released (Page.Retain, Page.Release, ReleaseAll). On a nil
// pool it simply allocates pages nobody counts.
func (p *PagePool) GetRun(pageSize, tupleLen int, dst []*Page) error {
	if err := CheckPageGeometry(pageSize, tupleLen); err != nil {
		return err
	}
	k := 0 // dst[:k] come off the free list
	if p != nil {
		p.mu.Lock()
		stack := p.stackLocked(pageSize)
		k = min(len(dst), len(*stack))
		rest := len(*stack) - k
		copy(dst, (*stack)[rest:])
		clear((*stack)[rest:])
		*stack = (*stack)[:rest]
		p.freeBytes -= int64(k) * int64(pageSize)
		p.hits += int64(k)
		p.misses += int64(len(dst) - k)
		p.mu.Unlock()
	}
	for i := range dst {
		if i < k {
			dst[i].setTupleLen(tupleLen)
		} else {
			dst[i] = MustNewPage(pageSize, tupleLen)
		}
		if p != nil {
			dst[i].home = p
			dst[i].refs.Store(1)
		}
	}
	return nil
}

// MustGet is Get but panics on error; for page geometries already
// validated by the caller.
func (p *PagePool) MustGet(pageSize, tupleLen int) *Page {
	pg, err := p.Get(pageSize, tupleLen)
	if err != nil {
		panic(err)
	}
	return pg
}

// recycle puts pages nothing can reach any more on the free list, under
// one acquisition of its lock; a page that would take the free bytes past
// the budget is dropped.
func (p *PagePool) recycle(pages []*Page) {
	for _, pg := range pages {
		pg.data = pg.data[:0]
		if poisonRecycled.Load() {
			poison := pg.data[:cap(pg.data)]
			for i := range poison {
				poison[i] = 0xDB
			}
		}
	}
	budget := p.Budget()
	p.mu.Lock()
	for _, pg := range pages {
		if p.freeBytes+int64(pg.size) <= budget {
			stack := p.stackLocked(pg.size)
			*stack = append(*stack, pg)
			p.freeBytes += int64(pg.size)
			p.recycled++
		}
	}
	p.mu.Unlock()
}

// ReleaseAll is Page.Release for every page of pages, nil entries
// included, with the last releases recycled in batches — one acquisition
// of a pool's lock per run of consecutive pages from that pool, up to
// MaxRun of them — instead of one per page. An over-release panics as
// Release does.
func ReleaseAll(pages []*Page) {
	var buf [MaxRun]*Page
	last := buf[:0]
	for _, pg := range pages {
		if !pg.release() {
			continue
		}
		if len(last) == cap(last) || len(last) > 0 && pg.home != last[0].home {
			last[0].home.recycle(last)
			last = last[:0]
		}
		last = append(last, pg)
	}
	if len(last) > 0 {
		last[0].home.recycle(last)
	}
}

// poisonRecycled makes recycle overwrite the whole payload capacity of every
// page it is given: a reader that still holds a recycled page then sees
// 0xDB bytes (and, under the race detector, a write racing its read)
// rather than plausible stale tuples.
var poisonRecycled atomic.Bool

// PoisonRecycledPages switches the use-after-recycle detector on or off
// for every pool in the process. It is a test hook: packages whose
// tests exercise page recycling switch it on from TestMain.
func PoisonRecycledPages(on bool) { poisonRecycled.Store(on) }
