package dfdbm

import (
	"fmt"
	"os"
	"path/filepath"

	"dfdbm/internal/catalog"
	"dfdbm/internal/heap"
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

// Save writes the database to dir as a data directory (heap files, a
// manifest and a log) the way `serve -data-dir` seeds a fresh one: open
// the log, checkpoint, close. It checkpoints a resident copy, so db
// stays as it was. OpenDB reads the directory back, and `serve
// -data-dir` serves it. A directory that already holds a database is
// refused.
func (db *DB) Save(dir string) error {
	if heap.HasManifest(filepath.Join(dir, "heap")) {
		return fmt.Errorf("%s already holds a database", dir)
	}
	cat, err := resident(db.cat)
	if err != nil {
		return err
	}
	l, _, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	err = l.Checkpoint(cat)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenDB reads the database in the data directory dir, recovering it as
// `serve -data-dir` would (heap files plus the log tail), and returns
// it resident with the log closed. A path that holds no database is
// refused and left as it was.
func OpenDB(dir string) (*DB, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("%[1]s is a file, not a data directory: single-file DFDBM2 databases are no longer read; to migrate, run `dfdbm -db %[1]s serve -data-dir DIR` once with a build at or before commit 85d3b6f", dir)
	}
	if !heap.HasManifest(filepath.Join(dir, "heap")) {
		return nil, fmt.Errorf("%s holds no database (no heap manifest)", dir)
	}
	l, stored, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	cat, err := resident(stored)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return &DB{cat: cat}, nil
}

// resident returns a catalog holding a resident deep copy of every
// relation of cat.
func resident(cat *catalog.Catalog) (*catalog.Catalog, error) {
	out := catalog.New()
	for _, name := range cat.Names() {
		r, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		c, err := r.Materialize()
		if err != nil {
			return nil, err
		}
		out.Put(c)
	}
	return out, nil
}
