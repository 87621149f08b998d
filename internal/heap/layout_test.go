package heap

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfdbm/internal/relation"
	"dfdbm/internal/workload"
)

// The packed slot layout: a slot is its header plus the page, with no
// padding, so slots share 4 KiB blocks and straddle their edges.

// heapImage writes rel to a fresh heap file and returns the file's bytes.
func heapImage(t testing.TB, rel *relation.Relation) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), rel.Name()+".heap")
	hf, err := CreateFrom(path, rel, SchemaHash(rel.Schema()), 1)
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

// seal recomputes a header block's CRC.
func seal(b []byte) {
	binary.LittleEndian.PutUint32(b[headerDataLen:headerDataLen+4], crc32.Checksum(b[:headerDataLen], castagnoli))
}

// reseal applies edit to every intact header block of img and seals it,
// so the edited header is one a writer could have produced.
func reseal(img []byte, edit func(b []byte)) {
	for off := 0; off < 2*headerBlockLen; off += headerBlockLen {
		if b := img[off : off+headerBlockLen]; headerIntact(b) {
			edit(b)
			seal(b)
		}
	}
}

// forgePages returns img with a resealed header claiming pages pages.
func forgePages(img []byte, pages uint64) []byte {
	img = append([]byte(nil), img...)
	reseal(img, func(b []byte) { binary.LittleEndian.PutUint64(b[36:44], pages) })
	return img
}

// v1Image lays rel out as a version-1 heap file: the same header blocks
// and slot images, every slot padded to 4 KiB.
func v1Image(t testing.TB, rel *relation.Relation) []byte {
	t.Helper()
	const v1Slot = 4096
	v2, ps := heapImage(t, rel), rel.PageSize()
	img := make([]byte, dataOff+rel.NumPages()*v1Slot)
	copy(img, v2[:dataOff])
	for i := 0; i < rel.NumPages(); i++ {
		copy(img[dataOff+i*v1Slot:], v2[SlotOffset(ps, i):SlotOffset(ps, i+1)])
	}
	reseal(img, func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1) })
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
// and after a checkpoint's truncate.
func TestPackedFileSize(t *testing.T) {
	for _, ps := range []int{256, 2048} {
		rel := seedRelation(t, "r", testSchema(t), ps, 1000)
		hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(rel.Schema()), 1)
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
		if err := hf.Checkpoint(2); err != nil {
			t.Fatal(err)
		}
		if size, err := hf.Size(); err != nil || size != SlotOffset(ps, n) {
			t.Errorf("%d-byte pages after a checkpoint: %d bytes (%v), want %d", ps, size, err, SlotOffset(ps, n))
		}
	}
}

// A run read whose slots straddle 4 KiB block edges verifies and decodes
// every slot, whatever offset the run starts at.
func TestPackedRunAcrossBlockBoundary(t *testing.T) {
	const ps = 2048
	rel := seedRelation(t, "r", testSchema(t), ps, 8*127) // 8 full pages
	hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(rel.Schema()), 1)
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
	hf, err := CreateFrom(filepath.Join(t.TempDir(), "r.heap"), rel, SchemaHash(rel.Schema()), 1)
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

// A version-1 file is refused by name, whichever header block is intact;
// a block that fails its CRC still surrenders to the other.
func TestOpenRefusesV1SlotLayout(t *testing.T) {
	rel := seedRelation(t, "r", testSchema(t), 256, 100)
	img := v1Image(t, rel)
	refusedByName := func(err error) bool {
		return errors.Is(err, ErrCorrupt) && strings.Contains(err.Error(), "padded to 4 KiB") && strings.Contains(err.Error(), "7a75383")
	}
	if _, err := Open(writeImage(t, img), 0); !refusedByName(err) {
		t.Fatalf("v1 file: %v, want ErrCorrupt naming the 4 KiB-slot layout and 7a75383", err)
	}

	// Two intact blocks, block 0 a generation past block 1: tear the
	// newer and the older, still version 1, is refused by name.
	copy(img[:headerBlockLen], img[headerBlockLen:2*headerBlockLen])
	binary.LittleEndian.PutUint64(img[20:28], 2)
	seal(img[:headerBlockLen])
	if _, err := Open(writeImage(t, img), 0); !refusedByName(err) {
		t.Fatalf("v1 file with two header blocks: %v, want it refused by name", err)
	}
	img[20] ^= 0xFF // tear block 0
	if _, err := Open(writeImage(t, img), 0); !refusedByName(err) {
		t.Fatalf("v1 file with its newer block torn: %v, want the other block refused by name", err)
	}
	img[headerBlockLen+20] ^= 0xFF // and block 1
	if _, err := Open(writeImage(t, img), 0); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "no valid header block") {
		t.Fatalf("v1 file with both blocks torn: %v, want ErrCorrupt with no valid header block", err)
	}
}

// A header with a valid CRC that counts more pages than the file holds —
// one more, 2^40, more than an int can hold — is corrupt, not a reason
// to allocate.
func TestOpenRefusesForgedPageCount(t *testing.T) {
	rel := seedRelation(t, "r", testSchema(t), 256, 100)
	img := heapImage(t, rel)
	if _, err := Open(writeImage(t, img), 0); err != nil {
		t.Fatalf("unforged image: %v", err)
	}
	for _, pages := range []uint64{uint64(rel.NumPages()) + 1, 1 << 40, math.MaxInt64 + 1, math.MaxUint64} {
		if _, err := Open(writeImage(t, forgePages(img, pages)), 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("header counting %d pages in a file of %d: %v, want ErrCorrupt", pages, rel.NumPages(), err)
		}
	}
}

// FuzzHeapOpen opens arbitrary bytes as a heap file and reads every page
// it admits to. Neither may panic, and every error wraps ErrCorrupt.
func FuzzHeapOpen(f *testing.F) {
	rel := seedRelation(f, "r", testSchema(f), 256, 3*runTestTuplesPerPage+4)
	v2 := heapImage(f, rel)
	f.Add(v2)
	f.Add(v1Image(f, rel))
	f.Add(forgePages(v2, 1<<40))
	path := filepath.Join(f.TempDir(), "r.heap") // a worker runs one input at a time
	f.Fuzz(func(t *testing.T, img []byte) {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		hf, err := Open(path, 0)
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
