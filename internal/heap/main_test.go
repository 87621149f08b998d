package heap

import (
	"os"
	"testing"

	"dfdbm/internal/relation"
)

// TestMain runs every test of the package with the use-after-recycle
// detector on: a frame page that goes back to the pool's free list is
// overwritten with 0xDB, so a reader that still held it — one release
// too many somewhere — fails its comparison (and, under -race, is
// reported) instead of passing on stale but plausible tuples.
func TestMain(m *testing.M) {
	relation.PoisonRecycledPages(true)
	os.Exit(m.Run())
}
