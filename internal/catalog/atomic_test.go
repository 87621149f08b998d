package catalog

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicKilledMidway kills a write midway and asserts the
// previous file is byte-for-byte intact, with no temp file left: the
// contract the heap manifest's commit rests on. A failed or
// interrupted write never destroys the old copy.
func TestWriteFileAtomicKilledMidway(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest")
	before := bytes.Repeat([]byte("old manifest "), 100)
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(before)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A write that dies partway: it has written half the new bytes when
	// the process (here: the write callback) is killed.
	killed := errors.New("killed mid-write")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, werr := w.Write(bytes.Repeat([]byte("new"), 200)); werr != nil {
			return werr
		}
		return killed
	})
	if !errors.Is(err, killed) {
		t.Fatalf("WriteFileAtomic error = %v, want the mid-write kill", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("old file gone after failed write: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("old file modified by failed write (%d -> %d bytes)", len(before), len(after))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "manifest" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory after failed write = %v, want only [manifest]", names)
	}
}

// TestCatalogGeneration pins the dirty-tracking contract: Put, Drop,
// and Touch advance the generation; reads do not.
func TestCatalogGeneration(t *testing.T) {
	c := New()
	g0 := c.Generation()
	c.Put(mkRel(t, "a", 3))
	if c.Generation() == g0 {
		t.Fatal("Put did not advance generation")
	}
	g1 := c.Generation()
	c.Touch("a")
	if c.Generation() == g1 {
		t.Fatal("Touch did not advance generation")
	}
	g2 := c.Generation()
	_, _ = c.Get("a")
	_ = c.Names()
	_ = c.Len()
	if c.Generation() != g2 {
		t.Fatal("reads advanced generation")
	}
	if !c.Drop("a") {
		t.Fatal("Drop(a) = false")
	}
	if c.Generation() == g2 {
		t.Fatal("Drop did not advance generation")
	}
	g3 := c.Generation()
	if c.Drop("missing") {
		t.Fatal("Drop(missing) = true")
	}
	if c.Generation() != g3 {
		t.Fatal("no-op Drop advanced generation")
	}
}
