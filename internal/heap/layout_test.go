package heap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbm/internal/catalog"
	"dfdbm/internal/relation"
	"dfdbm/internal/workload"
)

// The packed slot layout: a slot is its header plus the page, with no
// padding, so slots share 4 KiB blocks and straddle their edges.

// heapImage writes rel to a fresh heap file and returns the file's bytes.
func heapImage(t testing.TB, rel *relation.Relation) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), rel.Name()+".heap")
	hf, err := CreateFrom(path, rel, SchemaHash(rel.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	hf.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// reseal applies edit to img's header and recomputes its CRC, so the
// edited header is one a writer could have produced.
func reseal(img []byte, edit func(b []byte)) []byte {
	img = append([]byte(nil), img...)
	edit(img[:headerLen])
	binary.LittleEndian.PutUint32(img[headerDataLen:headerLen], crc32.Checksum(img[:headerDataLen], castagnoli))
	return img
}

func writeImage(t *testing.T, img []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A file of n slots is SlotOffset(pageSize, n) bytes, after CreateFrom
// and after a checkpoint's trim of a truncated file.
func TestPackedFileSize(t *testing.T) {
	for _, ps := range []int{256, 2048} {
		rel := seedRelation(t, "r", testSchema(t), ps, 1000)
		hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(rel.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		defer hf.Close()
		n := rel.NumPages()
		if got := slotSizeFor(ps); got != int64(ps+slotHeaderLen) {
			t.Errorf("%d-byte pages: slot size %d, want %d", ps, got, ps+slotHeaderLen)
		}
		if size, err := hf.Size(); err != nil || size != SlotOffset(ps, n) {
			t.Errorf("%d-byte pages: %d slots in %d bytes (%v), want %d", ps, n, size, err, SlotOffset(ps, n))
		}
		if err := hf.truncate(n - 1); err != nil {
			t.Fatal(err)
		}
		if err := hf.trim(); err != nil {
			t.Fatal(err)
		}
		if size, err := hf.Size(); err != nil || size != SlotOffset(ps, n-1) {
			t.Errorf("%d-byte pages after a trim: %d bytes (%v), want %d", ps, size, err, SlotOffset(ps, n-1))
		}
	}
}

// A run read whose slots straddle 4 KiB block edges verifies and decodes
// every slot, whatever offset the run starts at.
func TestPackedRunAcrossBlockBoundary(t *testing.T) {
	const ps = 2048
	rel := seedRelation(t, "r", testSchema(t), ps, 8*127) // 8 full pages
	hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(rel.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	straddles := 0
	for i := 0; i < rel.NumPages(); i++ {
		if SlotOffset(ps, i)/4096 != (SlotOffset(ps, i+1)-1)/4096 {
			straddles++
		}
	}
	if straddles == 0 {
		t.Fatal("no slot straddles a 4 KiB block; the test proves nothing")
	}
	for _, first := range []int{0, 1, 3} {
		dst := make([]*relation.Page, rel.NumPages()-first)
		for k := range dst {
			dst[k] = relation.MustNewPage(ps, rel.Schema().TupleLen())
		}
		buf := make([]byte, int64(len(dst))*hf.slotSize)
		if err := hf.ReadPages(first, dst, buf); err != nil {
			t.Fatalf("run from slot %d: %v", first, err)
		}
		for k, pg := range dst {
			if string(pg.Marshal()) != string(rel.Page(first+k).Marshal()) {
				t.Errorf("run from slot %d: page %d differs from the one written", first, first+k)
			}
		}
	}
}

// A flipped byte in a slot that shares its 4 KiB block with neighbours
// fails that slot alone, read on its own or inside a run.
func TestPackedFlipFailsOnlyItsSlot(t *testing.T) {
	const ps, bad = 256, 5
	rel := seedRelation(t, "r", testSchema(t), ps, 30*runTestTuplesPerPage)
	hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(rel.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	flipSlotByte(t, hf, bad)
	block := SlotOffset(ps, bad) / 4096
	sharing := 0
	for i := 0; i < hf.NumPages(); i++ {
		inBlock := SlotOffset(ps, i)/4096 == block || (SlotOffset(ps, i+1)-1)/4096 == block
		if !inBlock {
			continue
		}
		sharing++
		_, err := hf.ReadPage(i)
		switch {
		case i == bad && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "slot 5")):
			t.Errorf("slot %d: %v, want ErrCorrupt naming slot 5", i, err)
		case i != bad && err != nil:
			t.Errorf("slot %d shares the block with the flipped byte: %v", i, err)
		}
	}
	if sharing < 3 {
		t.Fatalf("only %d slots share block %d; the test proves nothing", sharing, block)
	}
	dst := make([]*relation.Page, 4)
	for k := range dst {
		dst[k] = relation.MustNewPage(ps, rel.Schema().TupleLen())
	}
	err = hf.ReadPages(bad-2, dst, make([]byte, 4*hf.slotSize))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "slot 5") {
		t.Errorf("run over the flipped slot: %v, want ErrCorrupt naming slot 5", err)
	}
}

// The paper database at the serving 2 KB page costs at most 1.1 file
// bytes per tuple byte: the slot header, the page header, the unfilled
// tail of each page and one header area per file.
func TestPaperDatabaseFileBytesPerUserByte(t *testing.T) {
	cat, err := workload.BuildDatabase(workload.Config{Seed: 1, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Checkpoint(cat, 1); err != nil {
		t.Fatal(err)
	}
	var onDisk, user int64
	for _, name := range cat.Names() {
		size, err := store.FileSize(name)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := cat.Get(name)
		onDisk += size
		user += int64(rel.Cardinality() * rel.Schema().TupleLen())
	}
	ratio := float64(onDisk) / float64(user)
	t.Logf("%d file bytes for %d tuple bytes: %.3f", onDisk, user, ratio)
	if ratio > 1.1 {
		t.Errorf("heap files hold %.3f bytes per tuple byte, want at most 1.1", ratio)
	}
}

// A count that exceeds the slots the file holds — one more, 2^40, more
// than an int can hold — is corrupt, not a reason to allocate.
func TestOpenRefusesForgedPageCount(t *testing.T) {
	rel := seedRelation(t, "r", testSchema(t), 256, 100)
	path := writeImage(t, heapImage(t, rel))
	hf, err := Open(path, 0, uint64(rel.NumPages()))
	if err != nil {
		t.Fatalf("true count: %v", err)
	}
	hf.Close()
	for _, pages := range []uint64{uint64(rel.NumPages()) + 1, 1 << 40, math.MaxInt64 + 1, math.MaxUint64} {
		if _, err := Open(path, 0, pages); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a count of %d pages in a file of %d: %v, want ErrCorrupt", pages, rel.NumPages(), err)
		}
	}
}

// FuzzHeapOpen opens arbitrary bytes as a heap file of an arbitrary page
// count and reads every page it admits to. Neither may panic, and every
// error wraps ErrCorrupt.
func FuzzHeapOpen(f *testing.F) {
	rel := seedRelation(f, "r", testSchema(f), 256, 3*runTestTuplesPerPage+4)
	img, pages := heapImage(f, rel), uint64(rel.NumPages())
	f.Add(img, pages)
	f.Add(reseal(img, func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 2) }), pages)
	f.Add(img, uint64(1<<40))
	path := filepath.Join(f.TempDir(), "r.heap") // a worker runs one input at a time
	f.Fuzz(func(t *testing.T, img []byte, pages uint64) {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		hf, err := Open(path, 0, pages)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v does not wrap ErrCorrupt", err)
			}
			return
		}
		defer hf.Close()
		for i := 0; i < hf.NumPages(); i++ {
			if _, err := hf.ReadPage(i); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadPage(%d): %v does not wrap ErrCorrupt", i, err)
			}
		}
	})
}

// forgeManifest returns a copy of a one-relation manifest whose
// relation counts pages pages, its CRC recomputed: a manifest a writer
// could have produced.
func forgeManifest(raw []byte, name string, pages uint64) []byte {
	raw = bytes.Clone(raw)
	off := len(manifestMagic) + 8 + 4 + 2 + len(name) + 4 // magic, cover, count, name, page size
	binary.LittleEndian.PutUint64(raw[off:], pages)
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(body):], crc32.Checksum(body, castagnoli))
	return raw
}

// FuzzManifest reads arbitrary bytes as the manifest of a store that
// holds one true heap file, and audits what it names. Neither may
// panic, and every error wraps ErrCorrupt but a relation's file failing
// to open (the manifest names a file the directory does not hold). A
// forged page count allocates nothing before Open checks it against
// the file's size: the seed counting 2^40 pages would otherwise size a
// 4 TiB table of tuple counts.
func FuzzManifest(f *testing.F) {
	dir := f.TempDir()
	store, err := OpenStore(dir, 4, nil)
	if err != nil {
		f.Fatal(err)
	}
	cat := catalog.New()
	cat.Put(seedRelation(f, "r", testSchema(f), 256, 3*runTestTuplesPerPage+4))
	if err := store.Checkpoint(cat, 7); err != nil {
		f.Fatal(err)
	}
	store.Close()
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(forgeManifest(good, "r", 1<<40))
	f.Add(append([]byte(oldManifestMagic), good[len(manifestMagic):]...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, audits, err := Audit(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Audit: %v does not wrap ErrCorrupt", err)
			}
			return
		}
		for _, a := range audits {
			var pe *fs.PathError
			if a.Err != nil && !errors.Is(a.Err, ErrCorrupt) && !errors.As(a.Err, &pe) {
				t.Fatalf("relation %q: %v neither wraps ErrCorrupt nor fails to open a file", a.Rel, a.Err)
			}
		}
	})
}

// A manifest cut short anywhere, or counting more pages than the file
// holds, is ErrCorrupt.
func TestManifestTruncatedOrForged(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	rel := seedRelation(t, "r", testSchema(t), 256, 100)
	cat.Put(rel)
	if err := store.Checkpoint(cat, 7); err != nil {
		t.Fatal(err)
	}
	store.Close()
	good, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if _, _, err := parseManifest(good[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest cut to %d of %d bytes: %v, want ErrCorrupt", n, len(good), err)
		}
	}
	for _, pages := range []uint64{uint64(rel.NumPages()) + 1, 1 << 40, math.MaxUint64} {
		if err := os.WriteFile(filepath.Join(dir, manifestName), forgeManifest(good, "r", pages), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, audits, err := Audit(dir); err != nil || !errors.Is(audits[0].Err, ErrCorrupt) {
			t.Errorf("manifest counting %d pages in a file of %d: %v, %v; want the file's audit ErrCorrupt", pages, rel.NumPages(), err, audits)
		}
	}
}
