package heap

import (
	"os"
	"path/filepath"
)

// FileAudit is the offline health report for one relation's heap
// file, produced by Audit for `dfdbm wal inspect`/`wal verify`.
type FileAudit struct {
	Rel      string
	Path     string
	Pages    int
	Tuples   int
	Bytes    int64 // physical file size
	PageSize int
	Err      error // nil = header, geometry, and every slot CRC check out
}

// HasManifest reports whether dir contains a heap-store manifest —
// whether a first checkpoint has committed there.
func HasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Audit inspects the heap store in dir without a buffer pool or WAL:
// it parses the manifest, opens each named heap file at its committed
// page count (Open checks the header CRC, the schema hash against the
// manifest and the count against the physical file size), and reads
// every slot to validate its checksum. It returns the manifest's cover
// and one entry per manifest relation; a missing or unreadable
// manifest is the error.
func Audit(dir string) (uint64, []FileAudit, error) {
	cover, ents, err := readManifest(dir)
	if err != nil {
		return 0, nil, err
	}
	out := make([]FileAudit, 0, len(ents))
	for _, e := range ents {
		fa := FileAudit{Rel: e.name, Path: filepath.Join(dir, e.name+heapSuffix)}
		fa.Err = auditFile(&fa, dir, e)
		out = append(out, fa)
	}
	return cover, out, nil
}

func auditFile(fa *FileAudit, dir string, e manifestEntry) error {
	hf, err := openEntry(dir, e)
	if err != nil {
		return err
	}
	defer hf.Close()
	fa.Pages = hf.NumPages()
	fa.Tuples = hf.Cardinality()
	fa.PageSize = hf.pageSize
	if fa.Bytes, err = hf.Size(); err != nil {
		return err
	}
	for i := 0; i < hf.NumPages(); i++ {
		if _, err := hf.ReadPage(i); err != nil {
			return err
		}
	}
	return nil
}
