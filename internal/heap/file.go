// Package heap implements the disk-resident half of the paper's
// three-level storage hierarchy: slotted-page heap files (mass
// storage) reached through a buffer pool with CLOCK eviction
// (the multiport disk cache), serving pages to the engines' IC-memory
// level. One relation is one file; slots hold relation.Page wire
// blobs (Page.Marshal) packed end to end, so a stored relation is
// byte-identical to its resident form by construction.
//
// Crash safety is split with the WAL: slot writes are in-place and
// carry no ordering guarantees, but every slot content newer than the
// checkpoint cover is reproducible from full-page post-images in the
// log (wal.RecPages), appends and deletes alike. A file's page count
// and the cover live in the store's manifest, rewritten atomically at
// each checkpoint: the one commit point (Store.Checkpoint). The file's
// own header is written once, before any manifest names the file, so
// no crash can tear it. A delete ends the file logically
// (Pool.Truncate); the slots past the end go after the next checkpoint
// commits.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"dfdbm/internal/catalog"
	"dfdbm/internal/relation"
)

// ErrCorrupt marks a heap store that fails validation: a manifest that
// does not parse or is of a retired layout, a file header with bad
// magic or checksum, more pages than the file holds, or a slot whose
// checksum does not match.
// Callers test with errors.Is.
var ErrCorrupt = errors.New("heap: corrupt heap file")

// On-disk layout:
//
//	offset 0        header (headerLen bytes)
//	offset dataOff  slot 0, slot 1, ... (SlotOffset(pageSize, i))
//
// The header: magic, version, page size, tuple length, schema hash,
// CRC-32C. Each slot is slotHeaderLen + pageSize bytes: u32 blob
// length, u32 blob CRC-32C, 8 reserved bytes, the page blob, zeros to
// the page size. Slots are packed, so one may straddle a 4 KiB block,
// and that is still safe after a crash: a write-back rewrites only its
// own slot's bytes; a neighbour's bytes in the shared block are the
// same in the old and the new image, so a torn block tears only the
// slot being written; and any slot newer than the cover has a
// full-page post-image in the log, which replay writes over whatever
// the tear left.
const (
	headerDataLen = 28 // bytes covered by the header CRC
	headerLen     = headerDataLen + 4
	dataOff       = 4096
	slotHeaderLen = 16
	fileVersion   = 3
)

var heapMagic = [8]byte{'D', 'F', 'D', 'B', 'H', 'E', 'A', 'P'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slotSizeFor returns the on-disk size of one slot for the given page
// size: its header plus the page.
func slotSizeFor(pageSize int) int64 {
	return int64(pageSize + slotHeaderLen)
}

// SlotOffset returns the file offset of slot i in a heap file of
// pageSize pages; SlotOffset(pageSize, n) is the size of a file that
// holds n slots.
func SlotOffset(pageSize, i int) int64 {
	return dataOff + int64(i)*slotSizeFor(pageSize)
}

// File is one relation's heap file. The logical state (page count,
// per-page tuple counts) leads the physical state: Install-path
// mutations update it immediately, while slot bytes reach the disk at
// buffer-pool write-back or checkpoint time. On open, the page count
// is the manifest's — the last checkpoint's — and WAL replay rebuilds
// everything past it.
type File struct {
	path     string
	f        *os.File
	pageSize int
	tupleLen int
	slotSize int64

	mu     sync.Mutex
	pages  int
	counts []uint32 // tuples per page
	// spare is an idle slot-sized buffer: write-backs and ReadPage build
	// their slot image in it instead of buying one each
	// (takeSlotBufLocked).
	spare []byte

	// frames[i] is the buffer-pool frame holding or loading page i, nil
	// while the page is not resident: the pool's residency index for this
	// file, guarded by Pool.mu (not mu) and grown as the pool claims frames.
	frames []*frame

	// readHook, when a test sets it, is called before every physical
	// read with the slots it covers.
	readHook func(first, n int)
}

// frame returns frames[i], nil past its end. The caller holds Pool.mu.
func (hf *File) frame(i int) *frame {
	if i < len(hf.frames) {
		return hf.frames[i]
	}
	return nil
}

// takeSlotBufLocked lends the file's spare slot buffer, or a fresh one
// while another caller has it; the borrower stores it back in spare.
// The contents are whatever the last user left.
func (hf *File) takeSlotBufLocked() []byte {
	if buf := hf.spare; buf != nil {
		hf.spare = nil
		return buf
	}
	return make([]byte, hf.slotSize)
}

// CreateFrom writes the pages of rel into a brand-new heap file at
// path with all-or-nothing crash semantics: temp file, header, full
// content, fsync, rename, directory fsync. It is the adopt path: the
// first materialization of a resident relation, and the one write of
// the file's header.
func CreateFrom(path string, rel *relation.Relation, schemaHash uint64) (*File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	tmpName := tmp.Name()
	fail := func(err error) (*File, error) {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}

	pageSize, tupleLen := rel.PageSize(), rel.Schema().TupleLen()
	slotSize := slotSizeFor(pageSize)
	hf := &File{
		path: path, f: tmp,
		pageSize: pageSize, tupleLen: tupleLen,
		slotSize: slotSize,
	}
	if _, err := tmp.WriteAt(renderHeader(pageSize, tupleLen, schemaHash), 0); err != nil {
		return fail(err)
	}
	i := 0
	err = rel.EachPage(func(p *relation.Page) error {
		if werr := hf.writeSlotLocked(i, p); werr != nil {
			return werr
		}
		hf.pages = i + 1
		hf.counts = append(hf.counts, uint32(p.TupleCount()))
		i++
		p.Release()
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fail(err)
	}
	if err := catalog.SyncDir(dir); err != nil {
		tmp.Close()
		return nil, err
	}
	return hf, nil
}

// Open reads an existing heap file of pages pages, the count the
// manifest committed, loading per-page tuple counts from the slot
// headers. A non-zero wantSchemaHash is verified against the header.
func Open(path string, wantSchemaHash, pages uint64) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	hf, err := openFrom(path, f, wantSchemaHash, pages)
	if err != nil {
		f.Close()
		return nil, err
	}
	return hf, nil
}

func openFrom(path string, f *os.File, wantSchemaHash, pages uint64) (*File, error) {
	var b [headerLen]byte
	if _, err := f.ReadAt(b[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %s: reading header: %v", ErrCorrupt, filepath.Base(path), err)
	}
	pageSize, tupleLen, schemaHash, err := parseHeader(b[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %s: header: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if wantSchemaHash != 0 && schemaHash != wantSchemaHash {
		return nil, fmt.Errorf("%w: %s: schema hash %016x does not match expected %016x",
			ErrCorrupt, filepath.Base(path), schemaHash, wantSchemaHash)
	}
	// A checkpoint commits a count only once the slots it counts are
	// durable, and trims slots only after the commit, so the file holds
	// every one of them. Checking that before sizing anything by the
	// count keeps a forged count from allocating.
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	slotSize := slotSizeFor(pageSize)
	if held := max(info.Size()-dataOff, 0) / slotSize; pages > uint64(held) {
		return nil, fmt.Errorf("%w: %s: manifest counts %d pages, the file holds %d slots",
			ErrCorrupt, filepath.Base(path), pages, held)
	}
	hf := &File{
		path: path, f: f,
		pageSize: pageSize, tupleLen: tupleLen,
		slotSize: slotSize,
		pages:    int(pages),
	}
	hf.counts = make([]uint32, hf.pages)
	var sh [slotHeaderLen]byte
	for i := 0; i < hf.pages; i++ {
		if _, err := f.ReadAt(sh[:8], SlotOffset(hf.pageSize, i)); err != nil {
			return nil, fmt.Errorf("%w: %s: slot %d header: %v", ErrCorrupt, filepath.Base(path), i, err)
		}
		blobLen := binary.LittleEndian.Uint32(sh[0:4])
		if blobLen < relation.PageHeaderLen || int64(blobLen) > hf.slotSize-slotHeaderLen {
			return nil, fmt.Errorf("%w: %s: slot %d: implausible blob length %d", ErrCorrupt, filepath.Base(path), i, blobLen)
		}
		hf.counts[i] = (blobLen - relation.PageHeaderLen) / uint32(hf.tupleLen)
	}
	return hf, nil
}

// renderHeader returns a file header for the given geometry.
func renderHeader(pageSize, tupleLen int, schemaHash uint64) []byte {
	b := make([]byte, headerLen)
	copy(b[:8], heapMagic[:])
	binary.LittleEndian.PutUint32(b[8:12], fileVersion)
	binary.LittleEndian.PutUint32(b[12:16], uint32(pageSize))
	binary.LittleEndian.PutUint32(b[16:20], uint32(tupleLen))
	binary.LittleEndian.PutUint64(b[20:28], schemaHash)
	binary.LittleEndian.PutUint32(b[headerDataLen:], crc32.Checksum(b[:headerDataLen], castagnoli))
	return b
}

// parseHeader checks and decodes a file header.
func parseHeader(b []byte) (pageSize, tupleLen int, schemaHash uint64, err error) {
	if [8]byte(b[:8]) != heapMagic {
		return 0, 0, 0, errors.New("bad magic")
	}
	if got, want := crc32.Checksum(b[:headerDataLen], castagnoli), binary.LittleEndian.Uint32(b[headerDataLen:]); got != want {
		return 0, 0, 0, fmt.Errorf("CRC mismatch (computed %08x, stored %08x)", got, want)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != fileVersion {
		return 0, 0, 0, fmt.Errorf("unsupported version %d", v)
	}
	pageSize = int(binary.LittleEndian.Uint32(b[12:16]))
	tupleLen = int(binary.LittleEndian.Uint32(b[16:20]))
	if err := relation.CheckPageGeometry(pageSize, tupleLen); err != nil {
		return 0, 0, 0, err
	}
	return pageSize, tupleLen, binary.LittleEndian.Uint64(b[20:28]), nil
}

// writeSlotLocked writes page i's full slot (header, blob, zeros to the
// page size) at its fixed offset, marshalling the page straight into a
// slot buffer. In-place and unordered: the WAL makes it safe.
func (hf *File) writeSlotLocked(i int, p *relation.Page) error {
	if n := int64(p.WireSize()); n+slotHeaderLen > hf.slotSize {
		return fmt.Errorf("heap: %s: page %d blob of %d bytes exceeds slot size %d", filepath.Base(hf.path), i, n, hf.slotSize)
	}
	buf := hf.takeSlotBufLocked()
	clear(buf[:slotHeaderLen])
	blob := p.AppendMarshal(buf[:slotHeaderLen])[slotHeaderLen:]
	clear(buf[slotHeaderLen+len(blob):])
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(blob)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(blob, castagnoli))
	_, err := hf.f.WriteAt(buf, SlotOffset(hf.pageSize, i))
	hf.spare = buf
	return err
}

// WritePage writes page i's slot in place — the buffer pool's
// write-back hook. It never changes the logical page count (NotePage
// did, at install time).
func (hf *File) WritePage(i int, p *relation.Page) error {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	if i < 0 || i >= hf.pages {
		return fmt.Errorf("heap: %s: write-back of page %d beyond %d pages", filepath.Base(hf.path), i, hf.pages)
	}
	return hf.writeSlotLocked(i, p)
}

// ReadPage reads and validates slot i, returning it decoded into a page
// of its own: a run of one through the file's spare slot buffer (audits
// and tests; scans go through Pool.ReadRun, which brings its own buffer
// and pages).
func (hf *File) ReadPage(i int) (*relation.Page, error) {
	pg, err := relation.NewPage(hf.pageSize, hf.tupleLen)
	if err != nil {
		return nil, err
	}
	hf.mu.Lock()
	buf := hf.takeSlotBufLocked()
	hf.mu.Unlock()
	err = hf.ReadPages(i, []*relation.Page{pg}, buf)
	hf.mu.Lock()
	hf.spare = buf
	hf.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return pg, nil
}

// ReadPages reads slots first .. first+len(dst)-1 with one ReadAt into
// buf (at least len(dst) slots long) and decodes each into the page dst
// holds for it, which must be of the file's page size and one nobody
// else can reach: the buffer pool passes pages from its free list, never
// a page a frame still holds or lent out. Every slot is validated on its
// own and an error names the slot; the pages are then the caller's to
// discard. Both buf and the pages are reused, so a read buys nothing.
func (hf *File) ReadPages(first int, dst []*relation.Page, buf []byte) error {
	hf.mu.Lock()
	pages := hf.pages
	hf.mu.Unlock()
	if first < 0 || first+len(dst) > pages {
		return fmt.Errorf("heap: %s: read of pages %d..%d beyond %d pages", filepath.Base(hf.path), first, first+len(dst)-1, pages)
	}
	if hf.readHook != nil {
		hf.readHook(first, len(dst))
	}
	buf = buf[:int64(len(dst))*hf.slotSize]
	if _, err := hf.f.ReadAt(buf, SlotOffset(hf.pageSize, first)); err != nil {
		return fmt.Errorf("heap: %s: slots %d..%d: %w", filepath.Base(hf.path), first, first+len(dst)-1, err)
	}
	for k, pg := range dst {
		if err := hf.decodeSlot(first+k, buf[int64(k)*hf.slotSize:int64(k+1)*hf.slotSize], pg); err != nil {
			return err
		}
	}
	return nil
}

// decodeSlot validates the image of slot i — blob length against the slot
// size, CRC, what relation.Page.Load checks (the blob's page size against
// pg's included), tuple length against the file — and decodes it into pg.
// The image is a reused buffer: pg gets its own copy of the blob.
func (hf *File) decodeSlot(i int, slot []byte, pg *relation.Page) error {
	blobLen := binary.LittleEndian.Uint32(slot[0:4])
	wantCRC := binary.LittleEndian.Uint32(slot[4:8])
	if int64(blobLen)+slotHeaderLen > hf.slotSize {
		return fmt.Errorf("%w: %s: slot %d: implausible blob length %d", ErrCorrupt, filepath.Base(hf.path), i, blobLen)
	}
	blob := slot[slotHeaderLen : slotHeaderLen+int64(blobLen)]
	if got := crc32.Checksum(blob, castagnoli); got != wantCRC {
		return fmt.Errorf("%w: %s: slot %d CRC mismatch (computed %08x, stored %08x)", ErrCorrupt, filepath.Base(hf.path), i, got, wantCRC)
	}
	if err := pg.Load(blob); err != nil {
		return fmt.Errorf("%w: %s: slot %d: %v", ErrCorrupt, filepath.Base(hf.path), i, err)
	}
	if pg.TupleLen() != hf.tupleLen {
		return fmt.Errorf("%w: %s: slot %d holds %d-byte tuples, file holds %d", ErrCorrupt, filepath.Base(hf.path), i, pg.TupleLen(), hf.tupleLen)
	}
	return nil
}

// NotePage records the logical effect of installing page i with count
// tuples: extend or update the page count and per-page tuple counts.
// The slot bytes follow later, at write-back or checkpoint.
func (hf *File) NotePage(i, count int) error {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	switch {
	case i < hf.pages:
		hf.counts[i] = uint32(count)
	case i == hf.pages:
		hf.pages++
		hf.counts = append(hf.counts, uint32(count))
	default:
		return fmt.Errorf("heap: %s: install of page %d beyond %d pages", filepath.Base(hf.path), i, hf.pages)
	}
	return nil
}

// truncate records the logical effect of ending the file at n pages:
// the counts past n go. The slots stay until Checkpoint trims them.
func (hf *File) truncate(n int) error {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	if n < 0 || n > hf.pages {
		return fmt.Errorf("heap: %s: truncate to %d pages of %d", filepath.Base(hf.path), n, hf.pages)
	}
	hf.pages = n
	hf.counts = hf.counts[:n]
	return nil
}

// NumPages returns the logical page count.
func (hf *File) NumPages() int {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	return hf.pages
}

// PageTuples returns the tuple count of page i.
func (hf *File) PageTuples(i int) int {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	return int(hf.counts[i])
}

// Cardinality returns the total tuple count.
func (hf *File) Cardinality() int {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	n := 0
	for _, c := range hf.counts {
		n += int(c)
	}
	return n
}

// PageSize returns the file's page size.
func (hf *File) PageSize() int { return hf.pageSize }

// Path returns the file's path.
func (hf *File) Path() string { return hf.path }

// trim cuts the stale slots past the logical end off the file: what
// truncates left, once a manifest that no longer counts them has
// committed (Store.Checkpoint).
func (hf *File) trim() error {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	want := SlotOffset(hf.pageSize, hf.pages)
	if info, err := hf.f.Stat(); err == nil && info.Size() > want {
		return hf.f.Truncate(want)
	}
	return nil
}

// Size returns the file's current physical size in bytes.
func (hf *File) Size() (int64, error) {
	info, err := hf.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Sync fsyncs the file.
func (hf *File) Sync() error { return hf.f.Sync() }

// Close closes the underlying file.
func (hf *File) Close() error { return hf.f.Close() }
