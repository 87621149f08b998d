package wal

import (
	"os"
	"testing"

	"dfdbm/internal/relation"
)

// TestMain runs every test of the package with the use-after-recycle
// detector on (see relation.PoisonRecycledPages): the storage suites
// here churn a 4-frame buffer pool, whose frame pages are recycled.
func TestMain(m *testing.M) {
	relation.PoisonRecycledPages(true)
	os.Exit(m.Run())
}
