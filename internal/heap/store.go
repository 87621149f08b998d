package heap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

// SchemaHash fingerprints a schema layout: FNV-1a over its rendered
// attribute list. Two schemas hash equal iff their names, types, and
// widths match. (wal.SchemaHash delegates here so log records and
// heap headers agree byte-for-byte.)
func SchemaHash(s *relation.Schema) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s.String())
	return h.Sum64()
}

// Store manages one heap file per relation under a directory, all
// sharing one buffer pool. The manifest file is the commit point for
// the set of relations: a relation exists durably iff the manifest
// names it and its heap file opens clean.
type Store struct {
	dir  string
	pool *Pool

	mu    sync.Mutex // lock order: Store.mu -> Pool.mu
	files map[string]*File
}

const (
	manifestName  = "manifest"
	heapSuffix    = ".heap"
	manifestMagic = "DFDBHMAN"
)

// OpenStore opens (creating if needed) a heap store rooted at dir with
// the given buffer-pool frame budget. Leftover temp files from
// interrupted atomic writes are removed.
func OpenStore(dir string, frames int, o *obs.Observer) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &Store{
		dir:   dir,
		pool:  NewPool(frames, o),
		files: make(map[string]*File),
	}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Pool returns the shared buffer pool.
func (s *Store) Pool() *Pool { return s.pool }

func (s *Store) filePath(name string) string {
	return filepath.Join(s.dir, name+heapSuffix)
}

// ManifestExists reports whether the store has a durable manifest —
// i.e. whether a first checkpoint has committed in this directory.
func (s *Store) ManifestExists() bool {
	_, err := os.Stat(filepath.Join(s.dir, manifestName))
	return err == nil
}

// manifestEntry is one relation's schema record in the manifest.
type manifestEntry struct {
	name     string
	pageSize int
	schema   *relation.Schema
}

// writeManifest atomically persists the current relation set (names
// and schemas). It is the commit point of a checkpoint — of the first
// one above all: a directory without a manifest was never seeded.
func (s *Store) writeManifest(cat *catalog.Catalog) error {
	names := cat.Names()
	sort.Strings(names)
	return catalog.WriteFileAtomic(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		crcw := crc32.New(castagnoli)
		bw := bufio.NewWriter(io.MultiWriter(w, crcw))
		if _, err := bw.WriteString(manifestMagic); err != nil {
			return err
		}
		var u32 [4]byte
		var u16 [2]byte
		putU32 := func(v uint32) error {
			binary.LittleEndian.PutUint32(u32[:], v)
			_, err := bw.Write(u32[:])
			return err
		}
		putStr := func(str string) error {
			binary.LittleEndian.PutUint16(u16[:], uint16(len(str)))
			if _, err := bw.Write(u16[:]); err != nil {
				return err
			}
			_, err := bw.WriteString(str)
			return err
		}
		if err := putU32(uint32(len(names))); err != nil {
			return err
		}
		for _, name := range names {
			rel, err := cat.Get(name)
			if err != nil {
				return err
			}
			if err := putStr(name); err != nil {
				return err
			}
			if err := putU32(uint32(rel.PageSize())); err != nil {
				return err
			}
			sc := rel.Schema()
			binary.LittleEndian.PutUint16(u16[:], uint16(sc.NumAttrs()))
			if _, err := bw.Write(u16[:]); err != nil {
				return err
			}
			for i := 0; i < sc.NumAttrs(); i++ {
				a := sc.Attr(i)
				if err := bw.WriteByte(byte(a.Type)); err != nil {
					return err
				}
				if err := putU32(uint32(a.Width)); err != nil {
					return err
				}
				if err := putStr(a.Name); err != nil {
					return err
				}
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		var trailer [4]byte
		binary.LittleEndian.PutUint32(trailer[:], crcw.Sum32())
		_, err := w.Write(trailer[:])
		return err
	})
}

// readManifest parses the manifest file in dir.
func readManifest(dir string) ([]manifestEntry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if len(raw) < len(manifestMagic)+8 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: manifest: bad magic or truncated", ErrCorrupt)
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: manifest CRC mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	d := body[len(manifestMagic):]
	fail := func() ([]manifestEntry, error) {
		return nil, fmt.Errorf("%w: manifest: truncated record", ErrCorrupt)
	}
	u32 := func() (uint32, bool) {
		if len(d) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(d)
		d = d[4:]
		return v, true
	}
	str := func() (string, bool) {
		if len(d) < 2 {
			return "", false
		}
		n := int(binary.LittleEndian.Uint16(d))
		d = d[2:]
		if len(d) < n {
			return "", false
		}
		v := string(d[:n])
		d = d[n:]
		return v, true
	}
	count, ok := u32()
	if !ok {
		return fail()
	}
	out := make([]manifestEntry, 0, count)
	for r := 0; r < int(count); r++ {
		name, ok := str()
		if !ok {
			return fail()
		}
		pageSize, ok := u32()
		if !ok {
			return fail()
		}
		if len(d) < 2 {
			return fail()
		}
		nAttrs := int(binary.LittleEndian.Uint16(d))
		d = d[2:]
		attrs := make([]relation.Attr, 0, nAttrs)
		for a := 0; a < nAttrs; a++ {
			if len(d) < 1 {
				return fail()
			}
			typ := relation.Type(d[0])
			d = d[1:]
			width, ok := u32()
			if !ok {
				return fail()
			}
			aname, ok := str()
			if !ok {
				return fail()
			}
			attrs = append(attrs, relation.Attr{Name: aname, Type: typ, Width: int(width)})
		}
		sc, err := relation.NewSchema(attrs...)
		if err != nil {
			return nil, fmt.Errorf("%w: manifest: relation %q: %v", ErrCorrupt, name, err)
		}
		out = append(out, manifestEntry{name: name, pageSize: int(pageSize), schema: sc})
	}
	return out, nil
}

// LoadCatalog opens every heap file named by the manifest, validates
// it against the recorded schema, and returns a catalog of stored
// relations attached to this store's buffer pool.
func (s *Store) LoadCatalog() (*catalog.Catalog, error) {
	ents, err := readManifest(s.dir)
	if err != nil {
		return nil, err
	}
	cat := catalog.New()
	for _, e := range ents {
		hf, err := Open(s.filePath(e.name), SchemaHash(e.schema))
		if err != nil {
			return nil, fmt.Errorf("heap: relation %q: %w", e.name, err)
		}
		if hf.pageSize != e.pageSize || hf.tupleLen != e.schema.TupleLen() {
			hf.Close()
			return nil, fmt.Errorf("%w: relation %q: file geometry %d/%d does not match manifest %d/%d",
				ErrCorrupt, e.name, hf.pageSize, hf.tupleLen, e.pageSize, e.schema.TupleLen())
		}
		rel, err := relation.New(e.name, e.schema, e.pageSize)
		if err != nil {
			hf.Close()
			return nil, err
		}
		s.mu.Lock()
		s.files[e.name] = hf
		s.mu.Unlock()
		rel.SetStore(&backing{pool: s.pool, f: hf})
		cat.Put(rel)
	}
	return cat, nil
}

// Adopt materializes rel (resident or already stored elsewhere) into
// a brand-new heap file with base LSN baseLSN, attaches it to the
// store, and flips rel to stored mode. The manifest is NOT updated —
// callers batch adoptions and commit once via Checkpoint or
// writeManifest.
func (s *Store) Adopt(rel *relation.Relation, baseLSN uint64) error {
	if rel.Stored() {
		return nil
	}
	hf, err := CreateFrom(s.filePath(rel.Name()), rel, SchemaHash(rel.Schema()), baseLSN)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if old, ok := s.files[rel.Name()]; ok {
		_ = s.pool.Truncate(old, 0) // fails only past the file's end, and 0 never is
		old.Close()
	}
	s.files[rel.Name()] = hf
	s.mu.Unlock()
	rel.SetStore(&backing{pool: s.pool, f: hf})
	return nil
}

// file resolves a relation's open heap file.
func (s *Store) file(name string) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files[name]
}

// Checkpoint makes every relation in cat durable at cover: relations
// not yet stored are adopted (with base LSN cover), dirty frames are
// flushed, each file's header advances to cover, and the manifest is
// rewritten. Must run under total write exclusion (the server
// schedules checkpoints with a full-catalog write footprint).
func (s *Store) Checkpoint(cat *catalog.Catalog, cover uint64) error {
	for _, name := range cat.Names() {
		rel, err := cat.Get(name)
		if err != nil {
			return err
		}
		if !rel.Stored() {
			if err := s.Adopt(rel, cover); err != nil {
				return err
			}
			continue
		}
		hf := s.file(name)
		if hf == nil {
			return fmt.Errorf("heap: stored relation %q has no open file", name)
		}
		if err := s.pool.FlushFile(hf); err != nil {
			return err
		}
		if err := hf.Checkpoint(cover); err != nil {
			return err
		}
	}
	if err := s.writeManifest(cat); err != nil {
		return err
	}
	return catalog.SyncDir(s.dir)
}

// MinBaseLSN returns the smallest base LSN across all open files — the
// LSN from which WAL replay must begin. Zero when no files are open.
func (s *Store) MinBaseLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var min uint64
	first := true
	for _, hf := range s.files {
		b := hf.BaseLSN()
		if first || b < min {
			min, first = b, false
		}
	}
	return min
}

// MaxBaseLSN returns the largest base LSN across all open files.
func (s *Store) MaxBaseLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max uint64
	for _, hf := range s.files {
		if b := hf.BaseLSN(); b > max {
			max = b
		}
	}
	return max
}

// FileSize returns the physical size of name's heap file.
func (s *Store) FileSize(name string) (int64, error) {
	hf := s.file(name)
	if hf == nil {
		return 0, fmt.Errorf("heap: unknown relation %q", name)
	}
	return hf.Size()
}

// Close closes all heap files. Dirty frames are deliberately NOT
// flushed: everything past each file's base LSN is in the WAL, and an
// unclean close must look exactly like a crash.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, hf := range s.files {
		if err := hf.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = make(map[string]*File)
	return first
}

// backing adapts one relation's heap file to relation.PageStore. A
// relation's file is never swapped under it — a write installs pages
// and truncates, in place — so it holds the *File.
type backing struct {
	pool *Pool
	f    *File
}

func (b *backing) NumPages() int        { return b.f.NumPages() }
func (b *backing) PageTuples(i int) int { return b.f.PageTuples(i) }
func (b *backing) Cardinality() int     { return b.f.Cardinality() }
func (b *backing) BaseLSN() uint64      { return b.f.BaseLSN() }

func (b *backing) ReadRun(first int, dst []*relation.Page) (int, error) {
	return b.pool.ReadRun(b.f, first, dst)
}

func (b *backing) Install(i int, p *relation.Page) error { return b.pool.Install(b.f, i, p) }
func (b *backing) Truncate(n int) error                  { return b.pool.Truncate(b.f, n) }
