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
// — and the counters are a function of the Get/Put sequence alone. The
// bytes held free never exceed Budget(): a Put beyond it drops the page.
//
// Ownership discipline: a page from Get has one owner, and whoever Puts
// it guarantees nothing can still reach it: not a reader, not a cache
// keyed by its identity. A page from GetShared has several holders — a
// buffer pool's frame and every reader the frame's page was lent to —
// and a count of them; each lets go once (Release, or Put, which is the
// same thing on a shared page) and the last one recycles it. Put on any
// other page — a catalog page, a result page retained by
// Relation.AppendPage — is a no-op, because those pages are aliased by
// readers nobody counts. A nil *PagePool is valid and degrades to plain
// allocation, so pooling is a pure opt-in.
type PagePool struct {
	mu        sync.Mutex
	free      map[int][]*Page // page size -> stack of free pages
	freeBytes int64           // sum of the free pages' sizes, <= Budget()
	hits      int64           // Gets served from the free list
	misses    int64           // Gets that allocated fresh
	recycled  int64           // Puts the free list kept

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
	Recycled  int64 // pages returned and kept for reuse
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
// length, reusing a free page of that size when there is one. On a nil
// pool it simply allocates.
func (p *PagePool) Get(pageSize, tupleLen int) (*Page, error) {
	if p == nil {
		return NewPage(pageSize, tupleLen)
	}
	pg, err := p.take(pageSize, tupleLen)
	if err != nil {
		return nil, err
	}
	pg.pooled, pg.home = true, nil
	return pg, nil
}

// GetShared is Get for a page that will have several holders: it comes
// back counting one reference, the caller's, and returns to this pool
// when the last reference is released (Page.Retain, Page.Release).
func (p *PagePool) GetShared(pageSize, tupleLen int) (*Page, error) {
	pg, err := p.take(pageSize, tupleLen)
	if err != nil {
		return nil, err
	}
	pg.home = p
	pg.refs.Store(1)
	return pg, nil
}

// take pops a free page of the size, or buys one.
func (p *PagePool) take(pageSize, tupleLen int) (*Page, error) {
	if err := CheckPageGeometry(pageSize, tupleLen); err != nil {
		return nil, err
	}
	p.mu.Lock()
	stack := p.free[pageSize]
	if n := len(stack); n > 0 {
		pg := stack[n-1]
		stack[n-1] = nil
		p.free[pageSize] = stack[:n-1]
		p.freeBytes -= int64(pageSize)
		p.hits++
		p.mu.Unlock()
		pg.setTupleLen(tupleLen)
		return pg, nil
	}
	p.misses++
	p.mu.Unlock()
	return NewPage(pageSize, tupleLen)
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

// Put returns a page to the pool for reuse. A shared page is released
// instead — to the pool it came from, which need not be this one. Of the
// rest only pages that came from a pool are accepted — Put on a catalog
// or retained page is a no-op — and a page is marked non-pooled on the
// way in, so a double Put cannot hand the same page out twice. A page the
// budget has no room for is left to the collector.
func (p *PagePool) Put(pg *Page) {
	if pg != nil && pg.home != nil {
		pg.Release()
		return
	}
	if p == nil || pg == nil || !pg.pooled {
		return
	}
	pg.pooled = false
	p.recycle(pg)
}

// recycle puts a page nothing can reach any more on the free list.
func (p *PagePool) recycle(pg *Page) {
	pg.data = pg.data[:0]
	if poisonPut.Load() {
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

// poisonPut makes Put overwrite the whole payload capacity of every
// page it is given: a reader that still holds a recycled page then sees
// 0xDB bytes (and, under the race detector, a write racing its read)
// rather than plausible stale tuples.
var poisonPut atomic.Bool

// PoisonRecycledPages switches the use-after-recycle detector on or off
// for every pool in the process. It is a test hook: packages whose
// tests exercise page recycling switch it on from TestMain.
func PoisonRecycledPages(on bool) { poisonPut.Store(on) }
