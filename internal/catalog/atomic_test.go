package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveFileAtomicKilledMidway kills a save midway through writing
// and asserts the previously saved file is byte-for-byte intact — the
// crash-safety contract of SaveFile: a failed or interrupted save
// never destroys the old copy.
func TestSaveFileAtomicKilledMidway(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db")
	c := mixedCatalog(t)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A save that dies partway: it has written half the catalog bytes
	// when the process (here: the write callback) is killed.
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	killed := errors.New("killed mid-save")
	err = WriteFileAtomic(path, func(w io.Writer) error {
		if _, werr := w.Write(buf.Bytes()[:buf.Len()/2]); werr != nil {
			return werr
		}
		return killed
	})
	if !errors.Is(err, killed) {
		t.Fatalf("WriteFileAtomic error = %v, want the mid-save kill", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("old file gone after failed save: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("old file modified by failed save (%d -> %d bytes)", len(before), len(after))
	}
	// No stray temp files either.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "db" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory after failed save = %v, want only [db]", names)
	}

	// And the intact file still loads to the same catalog.
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("reloaded %d relations, want %d", got.Len(), c.Len())
	}
}

// TestLoadCorruptionEveryFlipAndTruncation is the persistence
// corruption property test: for EVERY single-byte flip and EVERY
// truncation of a valid v2 database file, Load must return an error
// wrapping ErrCorrupt — never panic, never silently succeed. The
// trailing CRC-32C makes this total: any damaged bit fails the
// checksum before any byte of the body is interpreted.
func TestLoadCorruptionEveryFlipAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := mixedCatalog(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid file failed to load: %v", err)
	}

	load := func(t *testing.T, data []byte, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on %s: %v", what, r)
			}
		}()
		c, err := Load(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("Load silently succeeded on %s (%d relations)", what, c.Len())
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load error on %s = %v, want ErrCorrupt", what, err)
		}
	}

	for i := range valid {
		for _, bit := range []byte{0x01, 0x80, 0xFF} {
			flipped := bytes.Clone(valid)
			flipped[i] ^= bit
			load(t, flipped, fmt.Sprintf("flip byte %d ^ %#x", i, bit))
		}
	}
	for n := 0; n < len(valid); n++ {
		load(t, valid[:n], fmt.Sprintf("truncation to %d bytes", n))
	}
}

// TestLoadRefusesV1: a version-1 file (no checksum) is refused by
// name, wrapping ErrCorrupt, not loaded and not reported as garbage.
func TestLoadRefusesV1(t *testing.T) {
	var buf bytes.Buffer
	if err := mixedCatalog(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	// A v1 file is the v2 file with the old magic and no trailer.
	v1 := bytes.Clone(v2[:len(v2)-4])
	copy(v1, "DFDBM1\n\x00")
	_, err := Load(bytes.NewReader(v1))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "pre-checksum DFDBM1 file") {
		t.Fatalf("v1 load: got %v, want ErrCorrupt naming the DFDBM1 layout", err)
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
