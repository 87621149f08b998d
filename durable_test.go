package dfdbm_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbm"
	"dfdbm/internal/heap"
)

// TestStoredReadErrorIsReturned: a page of a stored relation that fails
// its slot CRC is an error, not a panic, for the serial reference's
// operator inputs and for Save alike.
func TestStoredReadErrorIsReturned(t *testing.T) {
	dir := t.TempDir()
	const pageSize = 2048
	l, _, _, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: 3, Scale: 0.05, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(seed.Catalog()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, db, _, err := dfdbm.OpenWAL(dir, dfdbm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if r1, err := db.Get("r1"); err != nil || !r1.Stored() {
		t.Fatalf("reopened r1: %v, stored %v", err, err == nil && r1.Stored())
	}

	// Flip a payload byte of r1's slot 0, which nothing has read yet.
	f, err := os.OpenFile(filepath.Join(dir, "heap", "r1.heap"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := heap.SlotOffset(pageSize, 0) + 16 + 20
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, heap.ErrCorrupt) || !strings.Contains(err.Error(), "slot 0 CRC") {
			t.Errorf("%s over a corrupt slot: %v, want the slot's CRC failure", what, err)
		}
	}
	q, err := db.Parse("restrict(r1, val < 500)")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ExecuteSerial(q)
	corrupt("ExecuteSerial", err)
	corrupt("Save", db.Save(io.Discard))
}
