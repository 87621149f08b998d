package relalg

import (
	"bytes"

	"dfdbm/internal/relation"
)

// Projector rewrites encoded tuples of a source schema down to a subset
// of attributes. Building one up front lets the per-tuple work be pure
// byte copying.
type Projector struct {
	src    *relation.Schema
	out    *relation.Schema
	fields []fieldSpan
}

type fieldSpan struct{ off, width int }

// NewProjector returns a projector from src onto the named attributes.
func NewProjector(src *relation.Schema, names ...string) (*Projector, error) {
	out, err := src.Project(names...)
	if err != nil {
		return nil, err
	}
	p := &Projector{src: src, out: out}
	for _, n := range names {
		i, err := src.Index(n)
		if err != nil {
			return nil, err
		}
		p.fields = append(p.fields, fieldSpan{off: src.Offset(i), width: src.Attr(i).ByteWidth()})
	}
	return p, nil
}

// OutSchema returns the schema of projected tuples.
func (p *Projector) OutSchema() *relation.Schema { return p.out }

// Apply appends the projection of raw to dst and returns the extended
// slice.
func (p *Projector) Apply(dst, raw []byte) []byte {
	for _, f := range p.fields {
		dst = append(dst, raw[f.off:f.off+f.width]...)
	}
	return dst
}

// Dedup tracks tuples already seen, for duplicate elimination. It is a
// hash-then-verify map: tuples are bucketed by a 64-bit hash of their
// bytes with per-bucket collision lists, so probing a duplicate
// allocates nothing. Retained tuple bytes live in one shared arena and
// buckets store (offset, length) spans into it, which makes Reset a
// pure truncation: the arena, the bucket slices, and the map's hash
// buckets all keep their capacity, so a reused Dedup re-absorbing a
// similar tuple stream allocates nothing at all. The zero value is not
// usable; call NewDedup.
type Dedup struct {
	seen map[uint64][]dedupSpan
	buf  []byte // arena of retained tuple bytes; spans index into it
	n    int
}

type dedupSpan struct{ off, len int32 }

// NewDedup returns an empty duplicate tracker.
func NewDedup() *Dedup { return &Dedup{seen: make(map[uint64][]dedupSpan)} }

// Add records raw and reports whether it was new.
func (d *Dedup) Add(raw []byte) bool {
	h := fnv1a64(raw)
	bucket := d.seen[h]
	for _, sp := range bucket {
		if bytes.Equal(d.buf[sp.off:sp.off+sp.len], raw) {
			return false
		}
	}
	off := int32(len(d.buf))
	d.buf = append(d.buf, raw...)
	d.seen[h] = append(bucket, dedupSpan{off: off, len: int32(len(raw))})
	d.n++
	return true
}

// Len returns the number of distinct tuples seen.
func (d *Dedup) Len() int { return d.n }

// Reset forgets every tuple seen while keeping all allocated capacity —
// the arena, each bucket's backing array, and the map's own buckets —
// so the tracker can be reused across pages, instructions, and queries
// without reallocating. Re-adding a tuple stream no larger than a
// previous use performs zero allocations.
func (d *Dedup) Reset() {
	for h, bucket := range d.seen {
		d.seen[h] = bucket[:0]
	}
	d.buf = d.buf[:0]
	d.n = 0
}

// HashPartition assigns an encoded (already projected) tuple to one of n
// partitions by hashing its bytes. Tuples that are byte-equal always land
// in the same partition, so per-partition duplicate elimination is
// globally correct: this is the parallel project algorithm that resolves
// the open problem in the paper's Section 5 — each IP owns a partition
// and deduplicates it independently, with no inter-IP coordination for
// the duration of the operator.
func HashPartition(raw []byte, n int) int {
	if n <= 1 {
		return 0
	}
	// Inline FNV-1a 32: identical values to hash/fnv, zero allocations.
	h := uint32(2166136261)
	for _, c := range raw {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h % uint32(n))
}
