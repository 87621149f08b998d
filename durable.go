package dfdbm

import (
	"dfdbm/internal/wal"
)

// Crash-safe durability: the write-ahead log behind `dfdbm serve
// -data-dir`. A WAL-backed server logs and fsyncs every append/delete
// before applying or acknowledging it, checkpoints every relation into
// its heap file, and recovers exactly the acknowledged writes after
// kill -9 (see internal/wal).
type (
	// WAL is an open write-ahead log rooted at a data directory
	// (OpenWAL). Assign it to ServeConfig.WAL to make the server's
	// write path durable.
	WAL = wal.Log
	// WALOptions parameterizes OpenWAL: segment size, fsync policy,
	// buffer-pool frames and observability.
	WALOptions = wal.Options
	// WALRecovery describes what OpenWAL found and repaired.
	WALRecovery = wal.Recovery
	// WALReport is InspectWAL's read-only view of a data directory.
	WALReport = wal.Report
	// WALRecord is one decoded redo record.
	WALRecord = wal.Record
	// FsyncPolicy says when the log forces records to stable storage.
	FsyncPolicy = wal.FsyncPolicy
	// HeapOptions (WALOptions.Heap) is the frame budget of the
	// buffer pool (CLOCK eviction) in front of the data directory's
	// heap files; nil means the defaults.
	HeapOptions = wal.HeapOptions
)

// Fsync policies for WALOptions.Fsync.
const (
	FsyncCommit = wal.FsyncCommit
	FsyncNone   = wal.FsyncNone
)

// ParseFsyncPolicy parses a -fsync flag value ("commit" or "none").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseFsyncPolicy(s) }

// OpenWAL opens (creating if necessary) a durable data directory and
// recovers the database from its heap files plus the log tail. On a
// fresh directory the returned DB is nil: seed one and call
// WAL.Checkpoint(db.Catalog()) to commit it.
func OpenWAL(dir string, opts WALOptions) (*WAL, *DB, WALRecovery, error) {
	l, cat, rv, err := wal.Open(dir, opts)
	if err != nil {
		return nil, nil, rv, err
	}
	var db *DB
	if cat != nil {
		db = &DB{cat: cat}
	}
	return l, db, rv, nil
}

// InspectWAL scans a data directory read-only, auditing every heap
// file and log segment and calling fn (when non-nil) with each
// decodable record in LSN order. It backs `dfdbm wal`.
func InspectWAL(dir string, fn func(segment string, offset int64, rec *WALRecord)) (*WALReport, error) {
	return wal.Inspect(dir, fn)
}
