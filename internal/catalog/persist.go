package catalog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dfdbm/internal/relation"
)

// The database file format is a straightforward length-prefixed binary
// layout:
//
//	magic   "DFDBM2\n\x00"                      8 bytes
//	u32     relation count
//	per relation:
//	  u16 name length, name bytes
//	  u32 page size
//	  u16 attribute count
//	  per attribute: u8 type, u32 width, u16 name length, name bytes
//	  u32 page count
//	  per page: u32 blob length, page blob (relation.Page.Marshal)
//	u32     CRC-32C of everything above (magic included)
//
// All integers are little-endian. Pages are stored in wire form, so a
// file read back yields byte-identical relations. The trailing checksum
// makes corruption — a torn write, a flipped bit, a truncated file —
// detectable instead of silently loadable. Version-1 files (magic
// "DFDBM1", no checksum) are refused by name.

var fileMagic = [8]byte{'D', 'F', 'D', 'B', 'M', '2', '\n', 0}

// ErrCorrupt marks a database file that is recognizably a dfdbm file
// but fails validation — checksum mismatch, truncation, or a
// structurally impossible value. Callers test with errors.Is.
var ErrCorrupt = errors.New("catalog: corrupt database file")

// castagnoli is the CRC-32C table shared by every checksum here.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the catalog to w in the checksummed v2 format.
func (c *Catalog) Save(w io.Writer) error {
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	names := c.Names()
	if err := writeU32(bw, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		r, err := c.Get(name)
		if err != nil {
			return err
		}
		if err := saveRelation(bw, r); err != nil {
			return fmt.Errorf("catalog: saving %q: %w", name, err)
		}
	}
	// The trailer must not feed the running checksum, so flush the body
	// through the hash first and write the sum to w alone.
	if err := bw.Flush(); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// Load reads a catalog previously written by Save. Any validation
// failure — bad checksum, truncation, implausible structure, or a
// pre-checksum version-1 file — is reported wrapping ErrCorrupt;
// corruption never panics and never loads silently.
func Load(r io.Reader) (*Catalog, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(magic[:6]) == "DFDBM1" {
		return nil, fmt.Errorf("%w: pre-checksum DFDBM1 file; re-save it with a build at or before f2ebb02", ErrCorrupt)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("%w: not a dfdbm database file", ErrCorrupt)
	}
	// The whole body must be present and must checksum correctly before
	// any of it is interpreted.
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", ErrCorrupt, err)
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: file truncated before checksum", ErrCorrupt)
	}
	body, trailer := rest[:len(rest)-4], rest[len(rest)-4:]
	crc := crc32.New(castagnoli)
	crc.Write(magic[:])
	crc.Write(body)
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	// A structural failure despite a matching checksum (e.g. a file
	// assembled by hand) is still corruption, never a silent success.
	br = bufio.NewReader(bytes.NewReader(body))
	n, err := readU32(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	c := New()
	for i := uint32(0); i < n; i++ {
		rel, err := loadRelation(br)
		if err != nil {
			return nil, fmt.Errorf("%w: loading relation %d: %v", ErrCorrupt, i, err)
		}
		c.Put(rel)
	}
	return c, nil
}

// SaveFile writes the catalog to the named file crash-safely: the bytes
// go to a temporary file in the same directory, which is fsynced and
// renamed over the target, and the directory entry is fsynced too. A
// crash at any point leaves either the old file or the new one — never
// a torn mix, and never a lost target.
func (c *Catalog) SaveFile(path string) error {
	return WriteFileAtomic(path, c.Save)
}

// WriteFileAtomic writes the output of write to path with
// all-or-nothing crash semantics: temp file in the same directory,
// fsync, rename over the target, directory fsync. On any error the
// temp file is removed and the previous contents of path are intact.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making renames and file creations within
// it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadFile reads a catalog from the named file.
func LoadFile(path string) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func saveRelation(w *bufio.Writer, r *relation.Relation) error {
	if err := writeString(w, r.Name()); err != nil {
		return err
	}
	if err := writeU32(w, uint32(r.PageSize())); err != nil {
		return err
	}
	s := r.Schema()
	if err := writeU16(w, uint16(s.NumAttrs())); err != nil {
		return err
	}
	for i := 0; i < s.NumAttrs(); i++ {
		a := s.Attr(i)
		if err := w.WriteByte(byte(a.Type)); err != nil {
			return err
		}
		if err := writeU32(w, uint32(a.Width)); err != nil {
			return err
		}
		if err := writeString(w, a.Name); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(r.NumPages())); err != nil {
		return err
	}
	return r.EachPage(func(pg *relation.Page) error {
		blob := pg.Marshal()
		pg.Release()
		if err := writeU32(w, uint32(len(blob))); err != nil {
			return err
		}
		_, err := w.Write(blob)
		return err
	})
}

func loadRelation(r *bufio.Reader) (*relation.Relation, error) {
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	pageSize, err := readU32(r)
	if err != nil {
		return nil, err
	}
	nAttrs, err := readU16(r)
	if err != nil {
		return nil, err
	}
	attrs := make([]relation.Attr, nAttrs)
	for i := range attrs {
		tb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		width, err := readU32(r)
		if err != nil {
			return nil, err
		}
		aname, err := readString(r)
		if err != nil {
			return nil, err
		}
		attrs[i] = relation.Attr{Name: aname, Type: relation.Type(tb), Width: int(width)}
	}
	schema, err := relation.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	rel, err := relation.New(name, schema, int(pageSize))
	if err != nil {
		return nil, err
	}
	nPages, err := readU32(r)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nPages; i++ {
		blobLen, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if blobLen > 1<<30 {
			return nil, fmt.Errorf("implausible page blob of %d bytes", blobLen)
		}
		blob := make([]byte, blobLen)
		if _, err := io.ReadFull(r, blob); err != nil {
			return nil, err
		}
		pg, err := relation.UnmarshalPage(blob)
		if err != nil {
			return nil, err
		}
		if pg.TupleLen() != schema.TupleLen() {
			return nil, fmt.Errorf("page tuple length %d does not match schema %s", pg.TupleLen(), schema)
		}
		if err := rel.AppendPage(pg); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func writeU16(w *bufio.Writer, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU32(w *bufio.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if len(s) > 1<<16-1 {
		return fmt.Errorf("string of %d bytes too long to store", len(s))
	}
	if err := writeU16(w, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readU16(r *bufio.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readU16(r)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
