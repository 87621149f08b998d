package wal

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dfdbm/internal/heap"
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

// TestOldManifestLayoutRefused: testdata/parent-9b64140.manifest is the
// manifest `dfdbm save` wrote at commit 9b64140, the last build whose
// heap files carried their own page count and base LSN. A directory
// holding it is refused by name — by Open and by Inspect, as ErrCorrupt
// — before any heap file is opened.
func TestOldManifestLayoutRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "parent-9b64140.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "heap"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "heap", "manifest"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "carry their own page count and base LSN; the last build to write it is 9b64140"
	refused := func(err error) bool { return errors.Is(err, heap.ErrCorrupt) && strings.Contains(err.Error(), want) }
	if _, _, _, err := Open(dir, Options{}); !refused(err) {
		t.Fatalf("Open = %v, want ErrCorrupt naming the layout", err)
	}
	if _, err := Inspect(dir, nil); !refused(err) {
		t.Fatalf("Inspect = %v, want ErrCorrupt naming the layout", err)
	}
}

// updateGolden rewrites testdata/pages.seg and pages.golden from this
// build's writer.
var updateGolden = flag.Bool("update", false, "rewrite testdata/pages.seg and pages.golden")

// goldenLine renders every field of a decoded record (the page images
// as one CRC). testdata/parent-1d4794a.golden was written with a pred
// field after pagecrc, empty on every record that still decodes.
func goldenLine(rec *Record) string {
	h := crc32.New(castagnoli)
	for _, pg := range rec.Pages {
		h.Write(pg.Marshal())
	}
	return fmt.Sprintf("lsn=%d type=%d rel=%q schema=%016x first=%d pages=%d pagecrc=%08x snapshot=%q cover=%d",
		rec.LSN, uint8(rec.Type), rec.Rel, rec.SchemaHash, rec.First, len(rec.Pages), h.Sum32(), rec.Base, rec.CoverLSN)
}

// decodeSegment reads the segment at path, whose first LSN is 1, and
// returns a goldenLine per record up to the first that does not decode,
// and that record's error (nil at a clean end).
func decodeSegment(t *testing.T, path string) ([]string, error) {
	t.Helper()
	f, err := os.Open(path)
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
			return got, nil
		}
		if err != nil {
			return got, err
		}
		got = append(got, goldenLine(rec))
	}
}

// goldenLines reads a golden file's lines.
func goldenLines(t *testing.T, name string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(b)), "\n")
}

// writeGoldenSegment logs heapTestOps on a fresh directory with a
// checkpoint after the third op, the shape both golden segments were
// written in, and returns its one segment.
func writeGoldenSegment(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	l, cat := openSeeded(t, dir, Options{})
	for i, op := range heapTestOps() {
		if err := applyHeapOp(t, l, cat, op); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := l.Checkpoint(cat); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("%d segments, %v: want one", len(segs), err)
	}
	b, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecordTypesOnDisk pins the on-disk numbering and two golden
// segments. The surviving record types keep their byte values. In the
// segment the parent commit 1d4794a wrote (heapTestOps as it was then,
// with a checkpoint after the third), every frame before the first
// type-2 frame decodes to the same record field for field, and that
// frame — the retired predicate delete — is refused by name. The segment
// this build writes for heapTestOps (testdata/pages.seg, deletes logged
// as their survivors' pages) is written byte for byte again and decodes
// field for field. Types 1 and 2 are refused as acknowledged corruption,
// not skipped and not cut off as a torn tail.
func TestRecordTypesOnDisk(t *testing.T) {
	if recRetiredAppend != 1 || recRetiredDelete != 2 || RecCheckpoint != 3 || RecPages != 4 {
		t.Fatalf("record type values shifted: retired append=%d, retired delete=%d, checkpoint=%d, pages=%d, want 1 2 3 4",
			recRetiredAppend, recRetiredDelete, RecCheckpoint, RecPages)
	}

	got, err := decodeSegment(t, filepath.Join("testdata", "parent-1d4794a.seg"))
	if !errors.Is(err, errRetiredDelete) || !strings.Contains(err.Error(), "retired predicate delete record") {
		t.Fatalf("parent segment after %d records: %v, want the retired delete refused by name", len(got), err)
	}
	want := goldenLines(t, "parent-1d4794a.golden")
	if len(got) >= len(want) || !strings.Contains(want[len(got)], " type=2 ") {
		t.Fatalf("parent segment stopped after %d records, not at its first type-2 record", len(got))
	}
	for i := range got {
		if w := strings.Replace(want[i], ` pred=""`, "", 1); got[i] != w {
			t.Fatalf("parent record %d decodes differently:\n got %s\nwant %s", i+1, got[i], w)
		}
	}

	seg := writeGoldenSegment(t)
	if *updateGolden {
		if err := os.WriteFile(filepath.Join("testdata", "pages.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err = decodeSegment(t, filepath.Join("testdata", "pages.seg"))
	if err != nil {
		t.Fatalf("pages segment after %d records: %v", len(got), err)
	}
	if *updateGolden {
		if err := os.WriteFile(filepath.Join("testdata", "pages.golden"), []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want = goldenLines(t, "pages.golden"); !slices.Equal(got, want) {
		t.Fatalf("pages segment decodes to\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	committed, err := os.ReadFile(filepath.Join("testdata", "pages.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, committed) {
		t.Fatal("this build writes heapTestOps' segment differently from testdata/pages.seg")
	}

	// A whole, CRC-valid type-1 or type-2 frame at the tail of the live
	// segment (decode looks no further than the type byte and the LSN):
	// it was acknowledged once, so Open refuses the log rather than
	// truncating it away as a torn tail, and Inspect attributes it to
	// the segment.
	for _, tc := range []struct {
		typ  RecordType
		name error // the refusal, which names the retired record
	}{
		{recRetiredAppend, errRetiredAppend},
		{recRetiredDelete, errRetiredDelete},
	} {
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
		f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(encode(&Record{Type: tc.typ, LSN: next})); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, _, _, err := Open(dir, Options{}); !errors.Is(err, tc.name) {
			t.Fatalf("Open over a type-%d record: %v, want ErrCorrupt naming the retired record", tc.typ, err)
		}
		rp, err := Inspect(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if last := rp.Segments[len(rp.Segments)-1]; rp.Clean() || !strings.Contains(last.Err, tc.name.Error()) {
			t.Fatalf("Inspect over a type-%d record: clean=%v, segment error %q", tc.typ, rp.Clean(), last.Err)
		}
	}
}

// TestAppendRecordResidentDestination: AppendRecord and DeleteRecord
// emit post-images for a destination without a heap file too, and
// applying them builds the pages plain inserts and relalg.Delete build.
func TestAppendRecordResidentDestination(t *testing.T) {
	ops := heapTestOps()
	states := heapPrefixStates(t, ops)
	cat := seedCatalog(t)
	for i, op := range ops {
		dst, err := cat.Get("ev")
		if err != nil {
			t.Fatal(err)
		}
		var rec *Record
		if op.kind == "append" {
			rec, err = AppendRecord(dst, buildSrc(t, op.start, op.n))
		} else {
			rec, err = DeleteRecord(dst, parsePred(t, op.pred))
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type != RecPages {
			t.Fatalf("op %d: record type %s, want pages", i, rec.Type)
		}
		if _, err := rec.Apply(cat); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, cat), states[i+1]) {
			t.Fatalf("after op %d the resident catalog differs from the insert-path reference", i)
		}
	}
}
