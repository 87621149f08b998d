package relation

import (
	"sync"
	"sync/atomic"
)

// The page free list is the process's one page memory: the engines' IC
// memory and the buffer pools' frames alike, bought once and handed out
// and taken back from then on. An engine produces a fresh page at every
// operator hop and it dies as soon as the consumer has read it, and a
// scan reads a fresh frame page at every miss, so recycling removes the
// dominant allocation on both hot paths.
//
// The list is one stack per page size under one mutex, taken once per
// run: GetRun hands out a run of pages and ReleaseAll takes one back, and
// Get and Page.Release are their runs of one. A page's payload always has
// the capacity of its size (NewPage), so a recycled page serves any tuple
// length; the stacks are the list's own, so a page put back stays until
// it is taken again — the collector never empties them — and the counters
// are a function of the Get/Release sequence alone. The bytes held free
// never exceed PageBudget(): a last release beyond it drops the page.
//
// Ownership has one rule: a page from Get counts its holders. It comes
// back with one reference, the caller's. Whoever it is handed to with a
// reference of its own — a buffer pool's frame, each reader the frame
// lent it to, a relation that retained it — lets go of it exactly once
// (Page.Release, or ReleaseAll with others), and the last one out puts it
// back on the list. A holder that has released no longer reaches the
// page: not as a reader, not through a cache keyed by its identity.
// Retain and Release do nothing to a page the list never handed out (a
// catalog page, a decoded blob): the collector takes those.
var freeList struct {
	mu        sync.Mutex
	stacks    []freeStack // one per page size, found by a scan: there are few sizes
	freeBytes int64       // sum of the free pages' sizes, <= PageBudget()
	hits      int64       // pages served from the list
	misses    int64       // pages allocated fresh
	recycled  int64       // last releases the list kept
}

// claimedBudget is the largest page budget any buffer pool has claimed
// (RaisePageBudget); 0 until one has.
var claimedBudget atomic.Int64

type freeStack struct {
	size  int
	pages []*Page
}

// stackLocked returns the free stack of pages of size bytes.
func stackLocked(size int) *[]*Page {
	for i := range freeList.stacks {
		if freeList.stacks[i].size == size {
			return &freeList.stacks[i].pages
		}
	}
	freeList.stacks = append(freeList.stacks, freeStack{size: size})
	return &freeList.stacks[len(freeList.stacks)-1].pages
}

// defaultPageBudget is the least page budget, in bytes: what the free
// list holds at most until a buffer pool claims more.
const defaultPageBudget = 4 << 20

// PageBudget returns the free list's budget in bytes: defaultPageBudget,
// or the largest budget a buffer pool has claimed if that is more. The
// budget bounds the free list; it does not cap Get, and pages already
// free stay until they are taken.
func PageBudget() int64 { return max(defaultPageBudget, claimedBudget.Load()) }

// RaisePageBudget raises the free list's budget to bytes if it is below
// it; the budget never falls. A buffer pool claims what its frames would
// hold: a scan's feeder runs up to a whole relation ahead of the workers
// that release its pages, and a list smaller than the frames drops most
// of them on their way back.
func RaisePageBudget(bytes int64) {
	for {
		cur := claimedBudget.Load()
		if bytes <= cur || claimedBudget.CompareAndSwap(cur, bytes) {
			return
		}
	}
}

// PoolStats is a point-in-time copy of the free list's counters.
type PoolStats struct {
	Hits      int64 // pages served from the free list
	Misses    int64 // pages freshly allocated
	Recycled  int64 // pages released by their last holder and kept for reuse
	FreeBytes int64 // page memory idle on the free list right now
}

// PageStats returns the free list's counters. They total every page the
// process has taken and given back, so a caller metering its own work
// takes deltas.
func PageStats() PoolStats {
	freeList.mu.Lock()
	defer freeList.mu.Unlock()
	return PoolStats{Hits: freeList.hits, Misses: freeList.misses, Recycled: freeList.recycled, FreeBytes: freeList.freeBytes}
}

// Get returns an empty page of the given size for tuples of the given
// length, reusing a free page of that size when there is one: GetRun for
// one page.
func Get(pageSize, tupleLen int) (*Page, error) {
	var one [1]*Page
	if err := GetRun(pageSize, tupleLen, one[:]); err != nil {
		return nil, err
	}
	return one[0], nil
}

// mustGet is Get but panics on error; for page geometries already
// validated by the caller.
func mustGet(pageSize, tupleLen int) *Page {
	pg, err := Get(pageSize, tupleLen)
	if err != nil {
		panic(err)
	}
	return pg
}

// GetRun fills dst with empty pages of the given size for tuples of the
// given length — free pages of that size first, fresh ones for the rest —
// under one acquisition of the free list's lock. Each page counts one
// reference, the caller's, and returns to the list when the last
// reference is released (Page.Retain, Page.Release, ReleaseAll).
func GetRun(pageSize, tupleLen int, dst []*Page) error {
	if err := CheckPageGeometry(pageSize, tupleLen); err != nil {
		return err
	}
	freeList.mu.Lock()
	stack := stackLocked(pageSize)
	k := min(len(dst), len(*stack)) // dst[:k] come off the free list
	rest := len(*stack) - k
	copy(dst, (*stack)[rest:])
	clear((*stack)[rest:])
	*stack = (*stack)[:rest]
	freeList.freeBytes -= int64(k) * int64(pageSize)
	freeList.hits += int64(k)
	freeList.misses += int64(len(dst) - k)
	freeList.mu.Unlock()
	for i := range dst {
		if i < k {
			dst[i].setTupleLen(tupleLen)
		} else {
			dst[i] = MustNewPage(pageSize, tupleLen)
			dst[i].counted = true
		}
		dst[i].refs.Store(1)
	}
	return nil
}

// recycle puts pages nothing can reach any more on the free list, under
// one acquisition of its lock; a page that would take the free bytes past
// the budget is dropped.
func recycle(pages []*Page) {
	for _, pg := range pages {
		pg.data = pg.data[:0]
		if poisonRecycled.Load() {
			poison := pg.data[:cap(pg.data)]
			for i := range poison {
				poison[i] = 0xDB
			}
		}
	}
	budget := PageBudget()
	freeList.mu.Lock()
	for _, pg := range pages {
		if freeList.freeBytes+int64(pg.size) <= budget {
			stack := stackLocked(pg.size)
			*stack = append(*stack, pg)
			freeList.freeBytes += int64(pg.size)
			freeList.recycled++
		}
	}
	freeList.mu.Unlock()
}

// ReleaseAll is Page.Release for every page of pages, nil entries
// included, with the last releases recycled in batches — one acquisition
// of the free list's lock per MaxRun of them — instead of one per page.
// An over-release panics as Release does.
func ReleaseAll(pages []*Page) {
	var buf [MaxRun]*Page
	last := buf[:0]
	for _, pg := range pages {
		if !pg.release() {
			continue
		}
		if len(last) == cap(last) {
			recycle(last)
			last = last[:0]
		}
		last = append(last, pg)
	}
	if len(last) > 0 {
		recycle(last)
	}
}

// poisonRecycled makes recycle overwrite the whole payload capacity of every
// page it is given: a reader that still holds a recycled page then sees
// 0xDB bytes (and, under the race detector, a write racing its read)
// rather than plausible stale tuples.
var poisonRecycled atomic.Bool

// PoisonRecycledPages switches the use-after-recycle detector on or off.
// It is a test hook: packages whose tests exercise page recycling switch
// it on from TestMain.
func PoisonRecycledPages(on bool) { poisonRecycled.Store(on) }
