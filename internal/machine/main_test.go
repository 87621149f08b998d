package machine

import (
	"os"
	"testing"

	"dfdbm/internal/relation"
)

// TestMain runs every test of the package with the use-after-recycle
// detector on (see relation.PoisonRecycledPages).
func TestMain(m *testing.M) {
	relation.PoisonRecycledPages(true)
	os.Exit(m.Run())
}
