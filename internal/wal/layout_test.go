package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeedingCrashReopensFresh kills a fresh directory at every point
// of its seeding checkpoint. Until the manifest commits the directory
// was never seeded: the reopen must say Fresh (not hand back an empty
// catalog), re-seeding over whatever the interrupted attempt left must
// succeed, and the result must equal a clean seed page for page. Once
// the manifest is in place the seed is committed whether or not the
// checkpoint record made it, and the reopen recovers it.
func TestSeedingCrashReopensFresh(t *testing.T) {
	want, _ := seedCatalog(t).Get("ev") // the clean seed, resident
	cleanDir := t.TempDir()
	l, _ := openSeeded(t, cleanDir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cleanHeap, err := os.ReadFile(filepath.Join(cleanDir, "heap", "ev.heap"))
	if err != nil {
		t.Fatal(err)
	}
	cleanManifest, err := os.ReadFile(filepath.Join(cleanDir, "heap", "manifest"))
	if err != nil {
		t.Fatal(err)
	}

	// killed opens dir and dies before Checkpoint, then drops the files
	// an interrupted heap checkpoint would have left in heap/.
	killed := func(left map[string][]byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			l, _, rv, err := Open(dir, Options{})
			if err != nil || !rv.Fresh {
				t.Fatalf("first open: fresh=%v err=%v", rv.Fresh, err)
			}
			l.Close()
			for name, b := range left {
				if err := os.WriteFile(filepath.Join(dir, "heap", name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// injected dies inside the seeding checkpoint's log append, after
	// the manifest committed.
	injected := func(inj *Injector) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			l, _, rv, err := Open(dir, Options{Injector: inj})
			if err != nil || !rv.Fresh {
				t.Fatalf("first open: fresh=%v err=%v", rv.Fresh, err)
			}
			if err := l.Checkpoint(seedCatalog(t)); !Injected(err) {
				t.Fatalf("seeding checkpoint: %v, want the injected failure", err)
			}
			l.Close()
		}
	}
	// A heap file of some other interrupted seed: it must be
	// overwritten by the re-seed, never adopted.
	stale := bytes.Clone(cleanHeap)
	for i := len(stale) / 2; i < len(stale); i++ {
		stale[i] ^= 0x5a
	}

	for _, tc := range []struct {
		name  string
		crash func(*testing.T, string)
		fresh bool
	}{
		{"before-checkpoint", killed(nil), true},
		{"heap-file-half-written", killed(map[string][]byte{"ev.heap.tmp123": cleanHeap[:len(cleanHeap)/2]}), true},
		{"heap-file-renamed", killed(map[string][]byte{"ev.heap": cleanHeap}), true},
		{"stale-heap-file", killed(map[string][]byte{"ev.heap": stale}), true},
		{"manifest-half-written", killed(map[string][]byte{"ev.heap": cleanHeap, "manifest.tmp456": cleanManifest[:len(cleanManifest)/2]}), true},
		{"write1-fail", injected(&Injector{FailWrite: 1}), false},
		{"write1-torn", injected(&Injector{FailWrite: 1, Torn: true}), false},
		{"sync1-fail", injected(&Injector{FailSync: 1}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.crash(t, dir)

			l, cat, rv, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if rv.Fresh != tc.fresh {
				t.Fatalf("reopen fresh=%v, want %v (%s)", rv.Fresh, tc.fresh, rv)
			}
			if rv.Fresh {
				if cat != nil {
					t.Fatal("fresh reopen returned a catalog")
				}
				cat = seedCatalog(t)
				if err := l.Checkpoint(cat); err != nil {
					t.Fatalf("re-seeding: %v", err)
				}
			}
			got, err := cat.Get("ev")
			if err != nil {
				t.Fatal(err)
			}
			requirePagesEqual(t, got, want)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, cat2, rv2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if rv2.Fresh || rv2.Replayed != 0 {
				t.Fatalf("second reopen: %s", rv2)
			}
			if got, err = cat2.Get("ev"); err != nil {
				t.Fatal(err)
			}
			requirePagesEqual(t, got, want)
		})
	}
}

// TestLogWritesWithoutBaseRefused: a log that holds an acknowledged
// write and a directory with no manifest to apply it to is lost data —
// ErrCorrupt, never a fresh directory and never an empty catalog.
func TestLogWritesWithoutBaseRefused(t *testing.T) {
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{})
	if err := applyHeapOp(t, l, cat, heapOp{kind: "append", start: 100, n: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "heap", "manifest")); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "log has writes but no checkpoint base") {
		t.Fatalf("Open = %v, want ErrCorrupt naming the missing base", err)
	}
}

// TestSnapshotLayoutRefused: a directory of whole-catalog snapshot
// files and no heap manifest is what builds before PR 24 left when they
// ran without heap files. It is refused by name — by Open and by
// Inspect — not taken for a fresh directory.
func TestSnapshotLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000000.db"), saveBytes(t, seedCatalog(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "pre-heap snapshot layout; open once with a build at or before commit 1d4794a to migrate"
	if _, _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want an error naming the layout", err)
	}
	if _, err := Inspect(dir, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Inspect = %v, want an error naming the layout", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "heap")); !os.IsNotExist(err) {
		t.Fatalf("the refusal touched the directory: heap/ stat = %v", err)
	}
}

// goldenLine renders every field of a decoded record (the page images
// as one CRC) in the format testdata/parent-1d4794a.golden was written
// in.
func goldenLine(rec *Record) string {
	h := crc32.New(castagnoli)
	for _, b := range rec.Pages {
		h.Write(b)
	}
	return fmt.Sprintf("lsn=%d type=%d rel=%q schema=%016x first=%d pages=%d pagecrc=%08x pred=%q snapshot=%q cover=%d",
		rec.LSN, uint8(rec.Type), rec.Rel, rec.SchemaHash, rec.First, len(rec.Pages), h.Sum32(), rec.Pred, rec.Base, rec.CoverLSN)
}

// TestRecordTypesOnDisk pins the on-disk numbering: the three surviving
// record types keep their byte values, a segment written in heap mode
// by the parent commit (1d4794a; heapTestOps with a checkpoint after
// the third) decodes to the same records field for field, and type 1 —
// the retired logical append — is refused as corruption, not skipped.
func TestRecordTypesOnDisk(t *testing.T) {
	if RecDelete != 2 || RecCheckpoint != 3 || RecAppendPages != 4 {
		t.Fatalf("record type values shifted: delete=%d checkpoint=%d append-pages=%d, want 2 3 4",
			RecDelete, RecCheckpoint, RecAppendPages)
	}

	f, err := os.Open(filepath.Join("testdata", "parent-1d4794a.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := checkHeader(hdr, 1); err != nil {
		t.Fatal(err)
	}
	var got []string
	for off := int64(segHeaderLen); ; {
		rec, n, err := readRecord(f, info.Size()-off)
		off += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(got)+1, err)
		}
		got = append(got, goldenLine(rec))
	}
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "parent-1d4794a.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(wantBytes)), "\n")
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, the parent wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d decodes differently:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}

	// A whole, CRC-valid type-1 frame at the tail of the live segment
	// (decode looks no further than the type byte and the LSN): it was
	// acknowledged once, so Open refuses the log rather than truncating
	// it away as a torn tail, and Inspect attributes it to the segment.
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{})
	next := l.LastLSN() + 1
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(encode(&Record{Type: recRetiredAppend, LSN: next})); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	const want1 = "retired logical append record (written by builds before PR 24)"
	if _, _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want1) {
		t.Fatalf("Open over a type-1 record: %v, want ErrCorrupt naming the retired record", err)
	}
	rp, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if last := rp.Segments[len(rp.Segments)-1]; rp.Clean() || !strings.Contains(last.Err, want1) {
		t.Fatalf("Inspect over a type-1 record: clean=%v, segment error %q", rp.Clean(), last.Err)
	}
}

// TestAppendRecordResidentDestination: AppendRecord emits post-images
// for a destination without a heap file too, and applying them through
// InstallPage builds the pages plain inserts build.
func TestAppendRecordResidentDestination(t *testing.T) {
	ops := heapTestOps()
	states := heapPrefixStates(t, ops)
	cat := seedCatalog(t)
	for i, op := range ops {
		rec := &Record{Type: RecDelete, Rel: "ev", Pred: op.pred}
		if op.kind == "append" {
			dst, err := cat.Get("ev")
			if err != nil {
				t.Fatal(err)
			}
			if rec, err = AppendRecord(dst, buildSrc(t, op.start, op.n)); err != nil {
				t.Fatal(err)
			}
			if rec.Type != RecAppendPages {
				t.Fatalf("op %d: record type %s, want append-pages", i, rec.Type)
			}
		}
		if _, err := rec.Apply(cat); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, cat), states[i+1]) {
			t.Fatalf("after op %d the resident catalog differs from the insert-path reference", i)
		}
	}
}
