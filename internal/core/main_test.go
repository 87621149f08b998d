package core

import (
	"os"
	"testing"

	"dfdbm/internal/relation"
)

// TestMain runs every test of the package with the use-after-recycle
// detector on: a page handed back to the page free list is overwritten
// with 0xDB, so a reader that still held it fails its comparison (and,
// under -race, is reported) instead of passing on stale but plausible
// tuples.
func TestMain(m *testing.M) {
	relation.PoisonRecycledPages(true)
	os.Exit(m.Run())
}
