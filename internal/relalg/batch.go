package relalg

import (
	"math/bits"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

// Batched kernels: the restrict and project loops rewritten to work on
// a page's contiguous tuple bytes at once. A restrict first fills a
// selection bitmap with the batch-compiled predicate (one tight
// compare loop per predicate leaf instead of an interface call per
// tuple), then walks the set bits to emit. Outputs are byte-identical
// to the scalar kernels in identical order: the bitmap preserves tuple
// order and the emit walk visits set bits in ascending position.

// RestrictState is the reusable state of the batched restrict kernel:
// the batch-compiled predicate plus bitmap scratch.
// It is owned by a single goroutine at a time (one per worker or IP).
type RestrictState struct {
	bp  *pred.BatchPred
	sel []uint64
}

// NewRestrictState compiles the bound predicate for batched
// evaluation. Predicates the batch compiler cannot vectorize run
// per-tuple inside the bitmap pass (see pred.CompileBatch), so a
// RestrictState is valid for every Bound.
func NewRestrictState(b pred.Bound) *RestrictState {
	return &RestrictState{bp: pred.CompileBatch(b)}
}

// Vectorized reports whether the predicate compiled fully to vector
// loops (false: some subtree uses the scalar fallback).
func (s *RestrictState) Vectorized() bool { return s.bp.Vectorized() }

// RestrictPage is the batched equivalent of the package-level
// RestrictPage: bitmap pass, then emit pass over the set bits.
func (s *RestrictState) RestrictPage(p *relation.Page, emit EmitFunc) (int, error) {
	n := p.TupleCount()
	if n == 0 {
		return 0, nil
	}
	data, tl := p.Data(), p.TupleLen()
	if w := pred.SelWords(n); cap(s.sel) < w {
		s.sel = make([]uint64, w)
	} else {
		s.sel = s.sel[:w]
	}
	if err := s.bp.EvalBatch(data, tl, n, s.sel); err != nil {
		return 0, err
	}
	kept := 0
	for wi, w := range s.sel {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			if err := emit(data[i*tl : (i+1)*tl]); err != nil {
				return kept, err
			}
			kept++
		}
	}
	return kept, nil
}

// ProjectState is the reusable batched project kernel: ProjectPage's
// field-span gather with the per-page output buffer hoisted into state
// and the page walked as one contiguous byte run.
type ProjectState struct {
	pj  *Projector
	buf []byte
}

// NewProjectState returns a project kernel state for the projector.
func NewProjectState(pj *Projector) *ProjectState { return &ProjectState{pj: pj} }

// ProjectPage projects every tuple of the page, emitting results that
// survive the optional dedup tracker. Byte-identical to the
// package-level ProjectPage.
func (s *ProjectState) ProjectPage(pg *relation.Page, d *Dedup, emit EmitFunc) (int, error) {
	n := pg.TupleCount()
	if n == 0 {
		return 0, nil
	}
	data, tl := pg.Data(), pg.TupleLen()
	emitted := 0
	p := 0
	for i := 0; i < n; i++ {
		s.buf = s.pj.Apply(s.buf[:0], data[p:p+tl])
		p += tl
		if d != nil && !d.Add(s.buf) {
			continue
		}
		if err := emit(s.buf); err != nil {
			return emitted, err
		}
		emitted++
	}
	return emitted, nil
}
