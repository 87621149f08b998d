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
// sharing one buffer pool. The manifest file is the commit point of a
// checkpoint: it names the relations, with each one's schema and page
// count, and the cover LSN every file reflects. A relation exists
// durably iff the manifest names it and its heap file opens clean.
type Store struct {
	dir  string
	pool *Pool

	mu    sync.Mutex // lock order: Store.mu -> Pool.mu
	files map[string]*File
}

const (
	manifestName  = "manifest"
	heapSuffix    = ".heap"
	manifestMagic = "DFDBHMN2"
	// oldManifestMagic is the manifest of the layout whose heap files
	// carried their own page count and base LSN; it is refused by name.
	oldManifestMagic = "DFDBHMAN"
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

// manifestEntry is one relation's record in the manifest.
type manifestEntry struct {
	name     string
	pageSize int
	pages    uint64
	schema   *relation.Schema
}

// writeManifest atomically persists cover and the current relation
// set: names, schemas and page counts. It is the commit point of a
// checkpoint — of the first one above all: a directory without a
// manifest was never seeded.
//
// Layout: magic, u64 cover, u32 relation count, then per relation its
// name, u32 page size, u64 page count, u16 attribute count and each
// attribute's type byte, u32 width and name; a CRC-32C of all that
// last. A string is a u16 length and its bytes.
func (s *Store) writeManifest(cat *catalog.Catalog, cover uint64) error {
	names := cat.Names() // sorted
	return catalog.WriteFileAtomic(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		crcw := crc32.New(castagnoli)
		bw := bufio.NewWriter(io.MultiWriter(w, crcw))
		if _, err := bw.WriteString(manifestMagic); err != nil {
			return err
		}
		var u64 [8]byte
		var u32 [4]byte
		var u16 [2]byte
		putU64 := func(v uint64) error {
			binary.LittleEndian.PutUint64(u64[:], v)
			_, err := bw.Write(u64[:])
			return err
		}
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
		if err := putU64(cover); err != nil {
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
			if err := putU64(uint64(rel.NumPages())); err != nil {
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

// readManifest reads the manifest file in dir: the cover and one entry
// per relation.
func readManifest(dir string) (uint64, []manifestEntry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, nil, err
	}
	return parseManifest(raw)
}

// parseManifest decodes a manifest image. It sizes nothing by a count
// it reads: a forged count runs out of bytes, not of memory.
func parseManifest(raw []byte) (uint64, []manifestEntry, error) {
	if len(raw) >= len(oldManifestMagic) && string(raw[:len(oldManifestMagic)]) == oldManifestMagic {
		return 0, nil, fmt.Errorf("%w: manifest of the layout whose heap files carry their own page count and base LSN; the last build to write it is 9b64140, re-initialize the directory", ErrCorrupt)
	}
	if len(raw) < len(manifestMagic)+4 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return 0, nil, fmt.Errorf("%w: manifest: bad magic or truncated", ErrCorrupt)
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, nil, fmt.Errorf("%w: manifest CRC mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	d := body[len(manifestMagic):]
	fail := func() (uint64, []manifestEntry, error) {
		return 0, nil, fmt.Errorf("%w: manifest: truncated record", ErrCorrupt)
	}
	u64 := func() (uint64, bool) {
		if len(d) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(d)
		d = d[8:]
		return v, true
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
	cover, ok := u64()
	if !ok {
		return fail()
	}
	count, ok := u32()
	if !ok {
		return fail()
	}
	var out []manifestEntry
	for r := uint32(0); r < count; r++ {
		name, ok := str()
		if !ok {
			return fail()
		}
		if name == "" || strings.ContainsAny(name, "/\x00") {
			return 0, nil, fmt.Errorf("%w: manifest: relation name %q is not a file name", ErrCorrupt, name)
		}
		pageSize, ok := u32()
		if !ok {
			return fail()
		}
		pages, ok := u64()
		if !ok || len(d) < 2 {
			return fail()
		}
		nAttrs := int(binary.LittleEndian.Uint16(d))
		d = d[2:]
		var attrs []relation.Attr
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
			return 0, nil, fmt.Errorf("%w: manifest: relation %q: %v", ErrCorrupt, name, err)
		}
		out = append(out, manifestEntry{name: name, pageSize: int(pageSize), pages: pages, schema: sc})
	}
	return cover, out, nil
}

// openEntry opens the heap file of manifest entry e at its committed
// page count and checks its geometry against the entry.
func openEntry(dir string, e manifestEntry) (*File, error) {
	hf, err := Open(filepath.Join(dir, e.name+heapSuffix), SchemaHash(e.schema), e.pages)
	if err != nil {
		return nil, err
	}
	if hf.pageSize != e.pageSize || hf.tupleLen != e.schema.TupleLen() {
		hf.Close()
		return nil, fmt.Errorf("%w: file geometry %d/%d does not match manifest %d/%d",
			ErrCorrupt, hf.pageSize, hf.tupleLen, e.pageSize, e.schema.TupleLen())
	}
	return hf, nil
}

// LoadCatalog opens every heap file named by the manifest at its
// committed page count, validates it against the recorded schema, and
// returns a catalog of stored relations attached to this store's
// buffer pool, and the cover: the LSN of the last record every file
// reflects.
func (s *Store) LoadCatalog() (*catalog.Catalog, uint64, error) {
	cover, ents, err := readManifest(s.dir)
	if err != nil {
		return nil, 0, err
	}
	cat := catalog.New()
	for _, e := range ents {
		hf, err := openEntry(s.dir, e)
		if err != nil {
			return nil, 0, fmt.Errorf("heap: relation %q: %w", e.name, err)
		}
		rel, err := relation.New(e.name, e.schema, e.pageSize)
		if err != nil {
			hf.Close()
			return nil, 0, err
		}
		s.mu.Lock()
		s.files[e.name] = hf
		s.mu.Unlock()
		rel.SetStore(&backing{pool: s.pool, f: hf})
		cat.Put(rel)
	}
	return cat, cover, nil
}

// Adopt materializes rel (resident or already stored elsewhere) into
// a brand-new heap file, attaches it to the store, and flips rel to
// stored mode. The manifest is NOT updated — callers batch adoptions
// and commit once via Checkpoint.
func (s *Store) Adopt(rel *relation.Relation) error {
	if rel.Stored() {
		return nil
	}
	hf, err := CreateFrom(s.filePath(rel.Name()), rel, SchemaHash(rel.Schema()))
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

// Checkpoint makes every relation in cat durable at cover and commits
// them all at once. First each relation is made durable in its file:
// adopted into a new one if it is resident, else its dirty frames
// written back and the file fsynced. Then the manifest is rewritten
// with cover and every page count: the commit point. Last the stale
// slots past each count are trimmed — only now, so that a crash before
// the commit finds every slot the old manifest counts. Must run under
// total write exclusion (the server schedules checkpoints with a
// full-catalog write footprint).
func (s *Store) Checkpoint(cat *catalog.Catalog, cover uint64) error {
	var flushed []*File
	for _, name := range cat.Names() {
		rel, err := cat.Get(name)
		if err != nil {
			return err
		}
		if !rel.Stored() {
			if err := s.Adopt(rel); err != nil {
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
		if err := hf.Sync(); err != nil {
			return err
		}
		flushed = append(flushed, hf)
	}
	if err := s.writeManifest(cat, cover); err != nil {
		return err
	}
	for _, hf := range flushed {
		if err := hf.trim(); err != nil {
			return err
		}
	}
	return nil
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
// flushed: everything past the manifest's cover is in the WAL, and an
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

func (b *backing) ReadRun(first int, dst []*relation.Page) (int, error) {
	return b.pool.ReadRun(b.f, first, dst)
}

func (b *backing) Install(i int, p *relation.Page) error { return b.pool.Install(b.f, i, p) }
func (b *backing) Truncate(n int) error                  { return b.pool.Truncate(b.f, n) }
