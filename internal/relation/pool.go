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
// The list is one stack per page size under one mutex. A page's payload
// always has the capacity of its size (NewPage), so a recycled page
// serves any tuple length; the stacks are the pool's own, so a page put
// back stays until it is taken again — the collector never empties them
// — and the counters are a function of the Get/Release sequence alone.
// The bytes held free never exceed Budget(): a last release beyond it
// drops the page.
//
// Ownership has one rule: a page from Get counts its holders. It comes
// back with one reference, the caller's. Whoever it is handed to with a
// reference of its own — a buffer pool's frame, each reader the frame
// lent it to, a relation that retained it — lets go of it exactly once
// (Page.Release), and the last one out puts it back on the list of the
// pool it came from. A holder that has released no longer reaches the
// page: not as a reader, not through a cache keyed by its identity.
// Retain and Release do nothing to a page no pool handed out (a catalog
// page, a decoded blob): the collector takes those. A nil *PagePool is
// valid and degrades to plain allocation, so pooling is a pure opt-in.
type PagePool struct {
	mu        sync.Mutex
	free      map[int][]*Page // page size -> stack of free pages
	freeBytes int64           // sum of the free pages' sizes, <= Budget()
	hits      int64           // Gets served from the free list
	misses    int64           // Gets that allocated fresh
	recycled  int64           // last releases the free list kept

	budget atomic.Int64 // page-memory budget in bytes (0 = default)
}

// NewPagePool returns an empty pool.
func NewPagePool() *PagePool { return &PagePool{} }

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
// length, reusing a free page of that size when there is one. The page
// counts one reference, the caller's, and returns to this pool when the
// last reference is released (Page.Retain, Page.Release). On a nil pool
// it simply allocates a page nobody counts.
func (p *PagePool) Get(pageSize, tupleLen int) (*Page, error) {
	if p == nil {
		return NewPage(pageSize, tupleLen)
	}
	if err := CheckPageGeometry(pageSize, tupleLen); err != nil {
		return nil, err
	}
	p.mu.Lock()
	stack := p.free[pageSize]
	var pg *Page
	if n := len(stack); n > 0 {
		pg = stack[n-1]
		stack[n-1] = nil
		p.free[pageSize] = stack[:n-1]
		p.freeBytes -= int64(pageSize)
		p.hits++
		p.mu.Unlock()
		pg.setTupleLen(tupleLen)
	} else {
		p.misses++
		p.mu.Unlock()
		pg = MustNewPage(pageSize, tupleLen)
	}
	pg.home = p
	pg.refs.Store(1)
	return pg, nil
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

// recycle puts a page nothing can reach any more on the free list.
func (p *PagePool) recycle(pg *Page) {
	pg.data = pg.data[:0]
	if poisonRecycled.Load() {
		poison := pg.data[:cap(pg.data)]
		for i := range poison {
			poison[i] = 0xDB
		}
	}
	budget := p.Budget()
	p.mu.Lock()
	if p.freeBytes+int64(pg.size) <= budget {
		if p.free == nil {
			p.free = make(map[int][]*Page)
		}
		p.free[pg.size] = append(p.free[pg.size], pg)
		p.freeBytes += int64(pg.size)
		p.recycled++
	}
	p.mu.Unlock()
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
