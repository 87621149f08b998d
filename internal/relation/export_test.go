package relation

// resetPageList empties the page free list, zeroes its counters and
// forgets every claimed budget: the list is the process's, so a test that
// needs exact counts starts it from nothing.
func resetPageList() {
	freeList.mu.Lock()
	freeList.stacks = nil
	freeList.freeBytes, freeList.hits, freeList.misses, freeList.recycled = 0, 0, 0, 0
	freeList.mu.Unlock()
	claimedBudget.Store(0)
}
