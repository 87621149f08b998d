package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/obs"
)

// Recovery describes what Open found and did to bring the data
// directory back to a consistent state.
type Recovery struct {
	// Fresh is true when the directory held no committed heap manifest
	// and no logged write: Open returned a nil catalog for the caller to
	// seed. A directory whose seeding checkpoint was interrupted is
	// fresh again.
	Fresh bool
	// Cover is the LSN of the last record the heap files reflect, as the
	// manifest committed it: replay began with the record after it.
	Cover uint64
	// Replayed counts log records re-applied on top of the heap files.
	Replayed int
	// TornTail is true when the last segment ended in a torn or corrupt
	// record that was truncated away; TruncatedBytes is how much was
	// cut. A torn tail is the expected shape of a crash mid-write —
	// never an error, because an incompletely written record was by
	// definition never acknowledged.
	TornTail       bool
	TruncatedBytes int64
	// DroppedSegments counts headerless trailing segments removed (a
	// crash during rotation, before the new segment's header was
	// durable — no record can have been written to it).
	DroppedSegments int
	// LastLSN is the highest LSN in the recovered log; appends resume
	// at LastLSN+1.
	LastLSN uint64
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// String summarizes the recovery for logs.
func (rv Recovery) String() string {
	if rv.Fresh {
		return "fresh data directory"
	}
	s := fmt.Sprintf("recovered to LSN %d: heap files cover LSN %d, %d records replayed",
		rv.LastLSN, rv.Cover, rv.Replayed)
	if rv.TornTail {
		s += fmt.Sprintf(", torn tail truncated (%d bytes)", rv.TruncatedBytes)
	}
	return s
}

// Open opens (creating if necessary) the data directory, recovers the
// catalog from the heap files plus the log tail, and returns the log
// ready for appending. On a fresh directory the returned catalog is nil
// and Recovery.Fresh is true: the caller seeds a catalog and calls
// Checkpoint to commit it.
//
// Recovery applies the redo rule: load the relations the manifest
// names at the page counts it committed, then replay in order every
// record past its cover. A torn or corrupt record at the very end of the last segment is
// truncated away — it is the unacknowledged write the crash
// interrupted. Corruption anywhere else is a hard ErrCorrupt: the log
// no longer proves what was acknowledged, and refusing to serve beats
// silently dropping acked writes.
func Open(dir string, opts Options) (*Log, *catalog.Catalog, Recovery, error) {
	start := time.Now()
	opts = opts.withDefaults()
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, Recovery{}, err
	}

	l := &Log{dir: dir, walDir: walDir, opts: opts, flusherDone: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	if opts.Obs.MetricsOn() {
		reg := opts.Obs.Registry()
		l.appendHist = reg.Histogram("wal.append_ns", obs.DurationBuckets())
		l.fsyncHist = reg.Histogram("wal.fsync_ns", obs.DurationBuckets())
		l.groupHist = reg.Histogram("wal.group_commit_size", obs.DepthBuckets())
	}

	rv, cat, err := l.recover()
	if err != nil {
		if l.heap != nil {
			l.heap.Close()
		}
		return nil, nil, Recovery{}, err
	}
	rv.Elapsed = time.Since(start)
	if opts.Obs.MetricsOn() {
		reg := opts.Obs.Registry()
		reg.Inc("wal.recoveries", 1)
		reg.Inc("wal.replayed_records", int64(rv.Replayed))
		if rv.TornTail {
			reg.Inc("wal.torn_tail_truncations", 1)
		}
		reg.Histogram("wal.recovery_ns", obs.DurationBuckets()).ObserveDuration(rv.Elapsed)
	}

	go l.flusher()
	return l, cat, rv, nil
}

// refuseSnapshotLayout is the check a directory without a heap manifest
// must pass before it may be called fresh: whole-catalog snapshot files
// are the one layout this build no longer reads, and treating it as
// fresh would serve an empty database over somebody's data.
func refuseSnapshotLayout(dir string) error {
	old, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil {
		return err
	}
	if len(old) > 0 {
		return fmt.Errorf("wal: %s holds %s and no heap manifest: pre-heap snapshot layout; open once with a build at or before commit 1d4794a to migrate",
			dir, filepath.Base(old[0]))
	}
	return nil
}

// recover scans the segments, repairs the tail, replays, and leaves l
// positioned to append (seg open, lsn set).
//
// The recovery base is the heap store itself: the catalog loads from
// the files the manifest names, at the page counts it committed, and
// replay applies every record past the manifest's one cover. A crash
// in the middle of a checkpoint leaves the old manifest: its counts
// and cover, and files some of which already hold later pages. Replay
// from that cover re-installs, in LSN order, every image a write-back
// could have put on disk since, and its gap checks meet the page
// counts the original run met. The manifest is the atomic commit of
// every checkpoint, so a directory without one was never seeded — or
// died while seeding — and is fresh, provided its log agrees: a
// logged write with no base to apply it to means acknowledged data is
// gone, and that is ErrCorrupt, never an empty catalog.
func (l *Log) recover() (Recovery, *catalog.Catalog, error) {
	var rv Recovery

	heapDir := filepath.Join(l.dir, "heap")
	seeded := heap.HasManifest(heapDir)
	if !seeded {
		if err := refuseSnapshotLayout(l.dir); err != nil {
			return rv, nil, err
		}
	}
	var err error
	if l.heap, err = heap.OpenStore(heapDir, l.opts.Heap.Frames, l.opts.Obs); err != nil {
		return rv, nil, err
	}

	segs, err := listSegments(l.walDir)
	if err != nil {
		return rv, nil, err
	}
	// A trailing segment without a durable header is a crash during
	// rotation: openSegment fsyncs the header before any record is
	// written, so nothing acknowledged can live there. Drop it. (Only
	// the last segment may legally be headerless; anywhere else the
	// log is corrupt and the scan below will say so.)
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		ok, err := hasValidHeader(last)
		if err != nil {
			return rv, nil, err
		}
		if ok {
			break
		}
		if err := os.Remove(last.path); err != nil {
			return rv, nil, err
		}
		rv.DroppedSegments++
		segs = segs[:len(segs)-1]
	}

	var cat *catalog.Catalog
	var apply func(*Record) (bool, error)
	lastLSN := uint64(0)
	if seeded {
		// Replay must reach back to the cover; a later-starting log has
		// lost acknowledged records.
		cat, rv.Cover, err = l.heap.LoadCatalog()
		if err != nil {
			return rv, nil, err
		}
		if len(segs) > 0 && segs[0].lsn > rv.Cover+1 {
			return rv, nil, fmt.Errorf("%w: log starts at LSN %d but heap files only cover LSN %d",
				ErrCorrupt, segs[0].lsn, rv.Cover)
		}
		lastLSN = rv.Cover
		apply = func(rec *Record) (bool, error) {
			if rec.Type == RecCheckpoint || rec.LSN <= rv.Cover {
				return false, nil
			}
			_, err := rec.Apply(cat)
			return err == nil, err
		}
	} else {
		rv.Fresh = true
		apply = func(rec *Record) (bool, error) {
			if rec.Type == RecCheckpoint {
				return false, nil
			}
			return false, fmt.Errorf("%w: log has writes but no checkpoint base (LSN %d, %s)", ErrCorrupt, rec.LSN, rec.Summary())
		}
	}

	// Scan and replay every segment. Only the last one's torn tail is
	// cut: a record that does not read, short of a whole frame whose
	// content is refused (acknowledged). Anywhere else, and for a break
	// in the LSN chain even in the tail, the log is corrupt.
	expect := uint64(0) // next LSN the log must present; 0 = not yet known
	for i, sf := range segs {
		sc, err := scanSegment(sf, &expect, func(_ int64, rec *Record) error {
			// Checkpoint records are replay no-ops and are not counted:
			// Replayed reports redone writes.
			redone, err := apply(rec)
			if err != nil {
				return fmt.Errorf("replaying LSN %d: %w", rec.LSN, err)
			}
			if redone {
				rv.Replayed++
				recordReplay(l.opts.Obs, rec)
			}
			return nil
		})
		if err != nil {
			return rv, nil, err
		}
		lastLSN = max(lastLSN, sc.lastLSN)
		if sc.bad == nil {
			continue
		}
		if i < len(segs)-1 || sc.badAt < 0 || acknowledged(sc.bad) {
			return rv, nil, fmt.Errorf("segment %s: %w", filepath.Base(sf.path), sc.bad)
		}
		rv.TornTail = true
		rv.TruncatedBytes = sc.size - sc.badAt
		if err := truncateSegment(sf.path, sc.badAt, l.opts.Fsync == FsyncCommit); err != nil {
			return rv, nil, err
		}
	}
	rv.LastLSN = lastLSN
	l.lsn = lastLSN

	// Resume appending: reuse the last segment if one survived with
	// room, else start a new one right after the recovered tail.
	if len(segs) > 0 {
		sf := segs[len(segs)-1]
		info, err := os.Stat(sf.path)
		if err != nil {
			return rv, nil, err
		}
		if info.Size() < l.opts.SegmentSize {
			f, err := os.OpenFile(sf.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return rv, nil, err
			}
			l.seg = f
			l.segSize = info.Size()
			return rv, cat, nil
		}
	}
	if err := l.openSegment(lastLSN + 1); err != nil {
		return rv, nil, err
	}
	return rv, cat, nil
}

// segScan is what scanSegment read of one segment.
type segScan struct {
	records int
	lastLSN uint64
	size    int64 // file size
	// bad is what ended the scan short of a clean end — a bad header, a
	// record that does not read, or a break in the LSN chain — and badAt
	// the offset of a record that does not read (-1 otherwise): where a
	// torn tail is cut.
	bad   error
	badAt int64
}

// hasValidHeader reports whether the segment file carries a complete,
// correct header matching its name.
func hasValidHeader(sf segFile) (bool, error) {
	f, err := os.Open(sf.path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil
		}
		return false, err
	}
	return checkHeader(hdr, sf.lsn) == nil, nil
}

func checkHeader(hdr [segHeaderLen]byte, nameLSN uint64) error {
	if [8]byte(hdr[:8]) != segMagic {
		return fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != segVersion {
		return fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	if first := binary.LittleEndian.Uint64(hdr[12:20]); first != nameLSN {
		return fmt.Errorf("%w: segment header LSN %d does not match name %d", ErrCorrupt, first, nameLSN)
	}
	return nil
}

// scanSegment reads one segment for recovery and inspection alike: it
// checks the header against the name and every record against the
// dense-LSN chain — each record is its predecessor + 1, and a segment's
// first carries the LSN in its name — and hands each record with its
// offset to fn. expect carries the chain across segments (0 until the
// first record fixes it). A validation failure ends the scan in
// segScan.bad for the caller to judge; an error is an I/O failure or
// fn's.
func scanSegment(sf segFile, expect *uint64, fn func(off int64, rec *Record) error) (segScan, error) {
	sc := segScan{badAt: -1}
	f, err := os.Open(sf.path)
	if err != nil {
		return sc, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return sc, err
	}
	sc.size = info.Size()

	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		sc.bad = fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
		return sc, nil
	}
	if sc.bad = checkHeader(hdr, sf.lsn); sc.bad != nil {
		return sc, nil
	}
	for off := int64(segHeaderLen); ; {
		rec, n, err := readRecord(f, sc.size-off)
		switch {
		case err == io.EOF:
			return sc, nil
		case err != nil:
			sc.bad, sc.badAt = fmt.Errorf("offset %d: %w", off, err), off
		case sc.records == 0 && rec.LSN != sf.lsn:
			sc.bad = fmt.Errorf("%w: first record LSN %d, want %d", ErrCorrupt, rec.LSN, sf.lsn)
		case *expect != 0 && rec.LSN != *expect:
			sc.bad = fmt.Errorf("%w: record LSN %d, want %d (lost records)", ErrCorrupt, rec.LSN, *expect)
		}
		if sc.bad != nil {
			return sc, nil
		}
		*expect = rec.LSN + 1
		sc.records++
		sc.lastLSN = rec.LSN
		if err := fn(off, rec); err != nil {
			return sc, err
		}
		off += n
	}
}

// recordReplay files one replayed write into the flight recorder so
// /queries/recent shows recovery work alongside live queries.
func recordReplay(o *obs.Observer, rec *Record) {
	if !o.FlightOn() {
		return
	}
	fr := o.Flight()
	// Trace IDs are only unique per process; offsetting by the LSN in
	// a reserved-looking high range keeps replays from colliding with
	// live queries started this run.
	id := 1<<63 | rec.LSN
	fr.Start(obs.QueryRecord{TraceID: id, Engine: "wal", Lane: "recovery", Text: rec.Summary()})
	fr.Finish(id, obs.OutcomeReplayed, nil)
}

// truncateSegment cuts a torn tail at off, making the cut durable
// under the commit fsync policy.
func truncateSegment(path string, off int64, sync bool) error {
	if err := os.Truncate(path, off); err != nil {
		return err
	}
	if !sync {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SegmentInfo describes one log segment for inspection.
type SegmentInfo struct {
	Name     string
	FirstLSN uint64
	LastLSN  uint64
	Records  int
	Bytes    int64
	// Err is the validation failure, "" when the segment is clean. A
	// failure in the final segment is a torn tail (repaired on the
	// next Open); anywhere else it is corruption.
	Err string
}

// Report is what Inspect finds in a data directory.
type Report struct {
	Segments []SegmentInfo
	// Heap holds the per-relation heap-file audits (header CRCs, slot
	// checksums, geometry vs manifest, on-disk sizes), and Cover the
	// LSN the manifest says they reflect. Empty until the first
	// checkpoint commits a manifest.
	Heap  []heap.FileAudit
	Cover uint64
	// FirstLSN and LastLSN bound the readable records.
	FirstLSN, LastLSN uint64
	Records           int
}

// Clean reports whether every segment (torn tails included) and every
// heap file validated.
func (rp *Report) Clean() bool {
	for _, s := range rp.Segments {
		if s.Err != "" {
			return false
		}
	}
	for _, h := range rp.Heap {
		if h.Err != nil {
			return false
		}
	}
	return true
}

// Inspect scans a data directory read-only — no repairs, no
// truncation — auditing every heap file and segment and calling fn
// (when non-nil) with each decodable record in LSN order. It backs the
// `dfdbm wal` subcommand and works on a live or crashed directory; a
// pre-heap snapshot layout is refused exactly as Open refuses it.
func Inspect(dir string, fn func(segment string, offset int64, rec *Record)) (*Report, error) {
	rp := &Report{}
	walDir := filepath.Join(dir, "wal")

	if heapDir := filepath.Join(dir, "heap"); heap.HasManifest(heapDir) {
		cover, audits, err := heap.Audit(heapDir)
		if err != nil {
			return nil, err
		}
		rp.Heap, rp.Cover = audits, cover
	} else if err := refuseSnapshotLayout(dir); err != nil {
		return nil, err
	}

	segs, err := listSegments(walDir)
	if err != nil {
		if os.IsNotExist(err) {
			return rp, nil
		}
		return nil, err
	}
	expect := uint64(0)
	for _, sf := range segs {
		name := filepath.Base(sf.path)
		sc, err := scanSegment(sf, &expect, func(off int64, rec *Record) error {
			if fn != nil {
				fn(name, off, rec)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		si := SegmentInfo{Name: name, FirstLSN: sf.lsn, LastLSN: sc.lastLSN, Records: sc.records, Bytes: sc.size}
		if sc.bad != nil {
			si.Err = sc.bad.Error()
		}
		if si.Records > 0 {
			if rp.FirstLSN == 0 {
				rp.FirstLSN = si.FirstLSN
			}
			rp.LastLSN = si.LastLSN
			rp.Records += si.Records
		}
		rp.Segments = append(rp.Segments, si)
	}
	return rp, nil
}
