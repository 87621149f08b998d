package heap

import (
	"fmt"
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
	BaseLSN  uint64
	PageSize int
	Err      error // nil = header, geometry, and every slot CRC check out
}

// HasManifest reports whether dir contains a heap-store manifest.
func HasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Audit inspects the heap store in dir without a buffer pool or WAL:
// it parses the manifest, opens each named heap file (Open checks the
// header CRC, the schema hash against the manifest and the page count
// against the physical file size), and reads every slot to validate
// its checksum. One entry is returned per manifest relation; a missing
// or unreadable manifest is the error.
func Audit(dir string) ([]FileAudit, error) {
	ents, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	out := make([]FileAudit, 0, len(ents))
	for _, e := range ents {
		fa := FileAudit{Rel: e.name, Path: filepath.Join(dir, e.name+heapSuffix)}
		fa.Err = auditFile(&fa, e)
		out = append(out, fa)
	}
	return out, nil
}

func auditFile(fa *FileAudit, e manifestEntry) error {
	hf, err := Open(fa.Path, SchemaHash(e.schema))
	if err != nil {
		return err
	}
	defer hf.Close()
	fa.Pages = hf.NumPages()
	fa.Tuples = hf.Cardinality()
	fa.BaseLSN = hf.BaseLSN()
	fa.PageSize = hf.pageSize
	if fa.Bytes, err = hf.Size(); err != nil {
		return err
	}
	if hf.pageSize != e.pageSize || hf.tupleLen != e.schema.TupleLen() {
		return fmt.Errorf("%w: geometry %d/%d does not match manifest %d/%d",
			ErrCorrupt, hf.pageSize, hf.tupleLen, e.pageSize, e.schema.TupleLen())
	}
	for i := 0; i < hf.NumPages(); i++ {
		if _, err := hf.ReadPage(i); err != nil {
			return err
		}
	}
	return nil
}
