package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
	"dfdbm/internal/obs"
)

// FsyncPolicy says when appended records are forced to stable storage.
type FsyncPolicy uint8

const (
	// FsyncCommit (the default) fsyncs before Append returns: every
	// acknowledged record survives kill -9 and power loss. Concurrent
	// appenders share fsyncs through the group-commit batcher, so the
	// cost is one fsync per batch, not per record.
	FsyncCommit FsyncPolicy = iota
	// FsyncNone writes records without forcing them: an OS crash can
	// lose acknowledged tail records (a process kill -9 alone cannot,
	// since the page cache survives the process). For benchmarks and
	// bulk loads.
	FsyncNone
)

// String returns the policy name accepted by the -fsync flag.
func (p FsyncPolicy) String() string {
	if p == FsyncNone {
		return "none"
	}
	return "commit"
}

// ParseFsyncPolicy parses a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "commit":
		return FsyncCommit, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want commit or none)", s)
	}
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// Options parameterizes a Log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes: a segment that
	// would grow past it is closed and a new one started. Default 16 MiB.
	SegmentSize int64
	// Fsync is the durability policy. Default FsyncCommit.
	Fsync FsyncPolicy
	// Obs, when non-nil, receives the wal.* counters and histograms
	// (append/fsync latency, group-commit size, recovery and
	// torn-tail counters) and — when it carries a flight recorder —
	// one "replayed" flight record per recovered write.
	Obs *obs.Observer
	// Injector, when non-nil, deterministically fails the Nth record
	// write or fsync: the crash-point hook driving recovery tests.
	Injector *Injector
	// Heap is the heap files' buffer-pool frame budget; nil means the
	// defaults.
	Heap *HeapOptions
}

// HeapOptions sizes the buffer pool in front of the heap files
// (Options.Heap).
type HeapOptions struct {
	// Frames is the buffer-pool frame budget shared by all relations.
	// Default heap.DefaultFrames.
	Frames int
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 16 << 20
	}
	if o.Heap == nil {
		o.Heap = &HeapOptions{}
	}
	return o
}

// Injector is the deterministic crash-point injector, in the spirit of
// internal/fault's seeded plans: it fails the Nth WAL record write or the
// Nth fsync, so a test can place a crash at every interesting point of
// the commit protocol and assert recovery.
type Injector struct {
	// FailWrite fails the Nth record write (1-based; 0 never).
	FailWrite int64
	// Torn, with FailWrite, writes a torn prefix of the record before
	// failing — the on-disk shape of a crash mid-write.
	Torn bool
	// FailSync fails the Nth fsync (1-based; 0 never).
	FailSync int64

	writes atomic.Int64
	syncs  atomic.Int64
}

var errInjected = errors.New("wal: injected failure")

// Injected reports whether err came from the injector (and not real I/O).
func Injected(err error) bool { return errors.Is(err, errInjected) }

// onWrite returns what the injector decrees for the next record write:
// nil (proceed), or an error after optionally leaving a torn prefix.
func (in *Injector) onWrite(f *os.File, frame []byte) error {
	if in == nil || in.writes.Add(1) != in.FailWrite {
		return nil
	}
	if in.Torn && len(frame) > 1 {
		f.Write(frame[:len(frame)/2])
		f.Sync() // make the torn prefix itself durable, worst case for recovery
	}
	return errInjected
}

func (in *Injector) onSync() error {
	if in == nil || in.syncs.Add(1) != in.FailSync {
		return nil
	}
	return errInjected
}

// Log is an open write-ahead log rooted at a data directory:
//
//	<dir>/heap/<name>.heap   one slotted heap file per relation
//	<dir>/heap/manifest      relations, page counts and cover; its atomic rewrite commits a checkpoint
//	<dir>/wal/wal-<lsn>.seg  log segments, first LSN in the name
//
// Each relation lives in its heap file behind a shared buffer
// pool; a checkpoint flushes the files and commits their page counts
// and its cover in the manifest, and recovery replays the log past the
// cover into them page by page.
//
// Append is safe for concurrent use; records are assigned dense LSNs
// in arrival order and made durable by a single group-commit flusher
// that shares one fsync across every record queued behind it.
type Log struct {
	dir    string
	walDir string
	opts   Options

	appendHist *obs.Histogram // wal.append_ns: enqueue to durable
	fsyncHist  *obs.Histogram // wal.fsync_ns
	groupHist  *obs.Histogram // wal.group_commit_size

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*appendReq
	closed bool
	broken error  // sticky first I/O failure; later appends fail fast
	lsn    uint64 // last assigned LSN

	// Flusher-owned segment state (guarded by the flusher being the
	// only writer after Open returns).
	seg     *os.File
	segSize int64

	sinceCkpt atomic.Int64 // bytes appended since the last checkpoint
	ckptGen   atomic.Int64 // catalog generation at the last checkpoint

	heap *heap.Store

	flusherDone chan struct{}
}

// Heap returns the heap-file store; it is never nil.
func (l *Log) Heap() *heap.Store { return l.heap }

// testFlushGate, when non-nil, sees every batch before it is written —
// the test hook that holds the flusher still while appenders pile up,
// forcing a group commit of known size.
var testFlushGate func(l *Log, batch []*appendReq)

type appendReq struct {
	lsn   uint64
	frame []byte
	done  chan error
	start time.Time
}

const (
	segPrefix    = "wal-"
	segSuffix    = ".seg"
	segHeaderLen = 20
	segVersion   = 1
)

var segMagic = [8]byte{'D', 'F', 'D', 'B', 'M', 'W', 'A', 'L'}

func segName(firstLSN uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix) }

// parseSegName extracts the first LSN from "wal-<16 hex>.seg".
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func segHeader(firstLSN uint64) []byte {
	buf := make([]byte, segHeaderLen)
	copy(buf, segMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], segVersion)
	binary.LittleEndian.PutUint64(buf[12:20], firstLSN)
	return buf
}

// LastLSN returns the most recently assigned LSN.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Dir returns the data directory the log is rooted at.
func (l *Log) Dir() string { return l.dir }

// SizeSinceCheckpoint returns the bytes of log appended since the last
// checkpoint — the redo work a crash right now would cost recovery.
func (l *Log) SizeSinceCheckpoint() int64 { return l.sinceCkpt.Load() }

// Append assigns rec the next LSN, writes it to the log, and returns
// once the record is durable under the configured fsync policy. It is
// the commit point: a caller may acknowledge the logical write to a
// client if and only if Append returned nil. Concurrent callers are
// batched behind shared fsyncs. A record recovery could not read back —
// a payload past maxRecordLen — is refused with ErrTooLarge before it
// takes an LSN, and the log stays as it was.
func (l *Log) Append(rec *Record) (uint64, error) {
	if n := payloadLen(rec); n > maxRecordLen {
		return 0, fmt.Errorf("%w: %s payload of %d bytes, at most %d", ErrTooLarge, rec.Type, n, maxRecordLen)
	}
	start := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if err := l.broken; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.lsn++
	rec.LSN = l.lsn
	req := &appendReq{lsn: rec.LSN, frame: encode(rec), done: make(chan error, 1), start: start}
	l.queue = append(l.queue, req)
	l.cond.Signal()
	l.mu.Unlock()

	err := <-req.done
	l.appendHist.ObserveDuration(time.Since(start))
	return rec.LSN, err
}

// flusher is the single group-commit goroutine: it drains the queue,
// writes every pending frame (rotating segments at the size
// threshold), fsyncs once, and releases the whole batch.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			if l.seg != nil {
				l.seg.Close()
			}
			return
		}
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()

		if testFlushGate != nil {
			testFlushGate(l, batch)
		}
		err := l.flushBatch(batch)
		if err != nil {
			l.mu.Lock()
			if l.broken == nil {
				l.broken = fmt.Errorf("wal: log broken: %w", err)
			}
			l.mu.Unlock()
		}
		for _, req := range batch {
			req.done <- err
		}
	}
}

func (l *Log) flushBatch(batch []*appendReq) error {
	var bytes int64
	for _, req := range batch {
		if l.segSize+int64(len(req.frame)) > l.opts.SegmentSize && l.segSize > segHeaderLen {
			// The new segment is named after the LSN of the record about
			// to land in it — recovery relies on the name to order
			// segments and validate replay continuity.
			if err := l.rotate(req.lsn); err != nil {
				return err
			}
		}
		if err := l.opts.Injector.onWrite(l.seg, req.frame); err != nil {
			return err
		}
		if _, err := l.seg.Write(req.frame); err != nil {
			return err
		}
		l.segSize += int64(len(req.frame))
		bytes += int64(len(req.frame))
	}
	if l.opts.Fsync == FsyncCommit {
		if err := l.opts.Injector.onSync(); err != nil {
			return err
		}
		syncStart := time.Now()
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.fsyncHist.ObserveDuration(time.Since(syncStart))
		l.count("wal.fsyncs", 1)
	}
	l.groupHist.Observe(int64(len(batch)))
	l.count("wal.records", int64(len(batch)))
	l.count("wal.bytes", bytes)
	l.sinceCkpt.Add(bytes)
	return nil
}

// rotate closes the current segment and starts the next, named after
// firstLSN — the LSN of the record that will be written first into it.
// The old segment is fsynced before closing so no durable record can
// postdate an undurable predecessor across the boundary.
func (l *Log) rotate(firstLSN uint64) error {
	if l.opts.Fsync == FsyncCommit {
		if err := l.seg.Sync(); err != nil {
			return err
		}
	}
	if err := l.seg.Close(); err != nil {
		return err
	}
	return l.openSegment(firstLSN)
}

// openSegment creates and durably registers a fresh segment whose
// first record will carry firstLSN: header written, file and directory
// fsynced, before any record lands in it.
func (l *Log) openSegment(firstLSN uint64) error {
	path := filepath.Join(l.walDir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(segHeader(firstLSN)); err != nil {
		f.Close()
		return err
	}
	if l.opts.Fsync == FsyncCommit {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := catalog.SyncDir(l.walDir); err != nil {
			f.Close()
			return err
		}
	}
	l.seg = f
	l.segSize = segHeaderLen
	l.count("wal.segments_created", 1)
	return nil
}

// Checkpoint makes every relation durable in its heap file — dirty
// frames flushed and each file fsynced — and commits them with the
// current LSN as the cover in the manifest (heap.Store.Checkpoint),
// then logs a checkpoint record and prunes the segments it obsoletes. The caller
// must guarantee no writer mutates the catalog during the call (the
// server runs checkpoints as a job whose footprint writes every
// relation). A checkpoint with no writes since the previous one is
// skipped, provided a committed manifest already exists.
func (l *Log) Checkpoint(cat *catalog.Catalog) error {
	gen := cat.Generation()
	if gen == l.ckptGen.Load() && heap.HasManifest(l.heap.Dir()) {
		l.count("wal.checkpoints_skipped", 1)
		return nil
	}
	cover := l.LastLSN()
	if err := l.heap.Checkpoint(cat, cover); err != nil {
		return fmt.Errorf("wal: heap checkpoint: %w", err)
	}
	if _, err := l.Append(&Record{Type: RecCheckpoint, Base: checkpointBase, CoverLSN: cover}); err != nil {
		return fmt.Errorf("wal: checkpoint record: %w", err)
	}
	l.ckptGen.Store(gen)
	l.sinceCkpt.Store(0)
	l.count("wal.checkpoints", 1)
	if err := l.prune(cover); err != nil {
		return fmt.Errorf("wal: checkpoint prune: %w", err)
	}
	return nil
}

// checkpointBase is the Base field of every checkpoint record: the
// durable base is the heap files themselves.
const checkpointBase = "heap"

// prune removes segments fully covered by the checkpoint at cover.
func (l *Log) prune(cover uint64) error {
	segs, err := listSegments(l.walDir)
	if err != nil {
		return err
	}
	// A segment is removable iff every record in it has LSN <= cover,
	// i.e. the next segment starts at or below cover+1. The last
	// segment is never removed.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].lsn <= cover+1 {
			if err := os.Remove(segs[i].path); err != nil {
				return err
			}
			l.count("wal.segments_pruned", 1)
		}
	}
	return catalog.SyncDir(l.dir)
}

// Close flushes pending appends and closes the log. The heap files
// close WITHOUT flushing dirty buffer-pool frames: every
// unflushed page is past the manifest's cover and therefore in the
// log, so an unflushed close recovers exactly like a crash — which
// keeps the close path trivially correct.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.flusherDone
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.flusherDone
	return l.heap.Close()
}

// segFile is one log segment, named after the LSN of its first record.
type segFile struct {
	path string
	lsn  uint64
}

// listSegments lists the segments in walDir, sorted ascending by LSN.
func listSegments(walDir string) ([]segFile, error) {
	entries, err := os.ReadDir(walDir)
	if err != nil {
		return nil, err
	}
	var out []segFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSegName(e.Name()); ok {
			out = append(out, segFile{path: filepath.Join(walDir, e.Name()), lsn: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lsn < out[j].lsn })
	return out, nil
}

func (l *Log) count(name string, delta int64) {
	if l.opts.Obs.MetricsOn() {
		l.opts.Obs.Registry().Inc(name, delta)
	}
}
