package relalg

import (
	"math/bits"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

// Batched kernels: the restrict and project loops written to work on a
// page's contiguous tuple bytes at once. A restrict first fills a
// selection bitmap with the batch-compiled predicate (one tight
// compare loop per predicate leaf instead of an interface call per
// tuple), then walks the bitmap's runs of set bits, copying each run of
// adjacent qualifying tuples with one copy. Its output is byte-identical
// to the scalar RestrictPage's in identical order: the bitmap preserves
// tuple order and the walk visits runs in ascending position.

// Out is where a fused kernel writes its result tuples: straight into
// the page that will carry them, so each output tuple is written once.
// Write copies whole tuples. Room returns free space for at least one
// tuple, a whole number of them: the kernel copies tuples to its start
// and hands them over with Commit(n), after which that Room is no longer
// its to write. A kernel asks for Room only when it has a tuple to write.
type Out interface {
	Write(tuples []byte) error
	Room() []byte
	Commit(n int) error
}

// emitOut is the Out behind JoinState.JoinPages, the EmitFunc form of
// the fused join: it hands every tuple to emit, in order, and its Room
// is a scratch buffer.
type emitOut struct {
	emit EmitFunc
	tl   int
	buf  []byte
}

// emitOutTuples is how many tuples an emitOut's scratch holds.
const emitOutTuples = 64

// aim points the adapter at emit for tuples of tl bytes.
func (e *emitOut) aim(emit EmitFunc, tl int) *emitOut {
	e.emit, e.tl = emit, tl
	return e
}

func (e *emitOut) Write(tuples []byte) error {
	for ; len(tuples) > 0; tuples = tuples[e.tl:] {
		if err := e.emit(tuples[:e.tl]); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitOut) Room() []byte {
	if n := emitOutTuples * e.tl; cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	return e.buf[:emitOutTuples*e.tl]
}

func (e *emitOut) Commit(n int) error { return e.Write(e.buf[:n]) }

// RestrictState is the reusable state of the batched restrict kernel:
// the batch-compiled predicate plus the bitmap and column scratch it is
// evaluated in. It is owned by a single goroutine at a time (one per
// worker or IP); the compiled predicate may be shared.
type RestrictState struct {
	bp      *pred.BatchPred
	sel     []uint64
	scratch pred.BatchScratch
}

// NewRestrictState compiles the bound predicate for batched
// evaluation. Predicates the batch compiler cannot vectorize run
// per-tuple inside the bitmap pass (see pred.CompileBatch), so a
// RestrictState is valid for every Bound.
func NewRestrictState(b pred.Bound) *RestrictState {
	return new(RestrictState).Aim(pred.CompileBatch(b))
}

// Aim points the state at another compiled predicate, keeping the
// bitmap and column scratch it has grown.
func (s *RestrictState) Aim(bp *pred.BatchPred) *RestrictState {
	s.bp = bp
	return s
}

// Vectorized reports whether the predicate compiled fully to vector
// loops (false: some subtree uses the scalar fallback).
func (s *RestrictState) Vectorized() bool { return s.bp.Vectorized() }

// RestrictPage is RestrictInto with each qualifying tuple handed to
// emit: the batched equivalent of the package-level RestrictPage.
func (s *RestrictState) RestrictPage(p *relation.Page, emit EmitFunc) (int, error) {
	return s.restrict(p, nil, emit)
}

// RestrictInto runs the bitmap pass over the page, then writes each
// maximal run of adjacent qualifying tuples to out with one Write. An
// all-qualifying page is one Write.
func (s *RestrictState) RestrictInto(p *relation.Page, out Out) (int, error) {
	return s.restrict(p, out, nil)
}

// restrict is both forms' kernel: with emit nil each run goes to out in
// one Write; with emit set each qualifying tuple goes to emit.
func (s *RestrictState) restrict(p *relation.Page, out Out, emit EmitFunc) (int, error) {
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
	if err := s.bp.EvalBatch(data, tl, n, s.sel, &s.scratch); err != nil {
		return 0, err
	}
	// One walk over the bitmap. Into out it steps a run at a time:
	// adding a word's lowest set bit to it carries through the lowest run
	// of set bits, so the sum's lowest set bit is where the run ends and
	// masking with the sum clears the run. A sum of zero is a run that
	// reaches the word's end; it goes on while the next word starts with
	// a set bit. Into emit it steps a tuple at a time, clearing the
	// lowest set bit.
	sel := s.sel
	kept := 0
	for wi := 0; wi < len(sel); wi++ {
		w, base := sel[wi], wi<<6
		for w != 0 {
			start := base + bits.TrailingZeros64(w)
			if emit != nil {
				w &= w - 1
				if err := emit(data[start*tl : start*tl+tl]); err != nil {
					return kept, err
				}
				kept++
				continue
			}
			sum := w + w&-w
			end := base + bits.TrailingZeros64(sum)
			w &= sum
			for sum == 0 && wi+1 < len(sel) && sel[wi+1]&1 != 0 {
				wi++
				w, base = sel[wi], wi<<6
				sum = w + 1
				end = base + bits.TrailingZeros64(sum)
				w &= sum
			}
			if err := out.Write(data[start*tl : end*tl]); err != nil {
				return kept, err
			}
			kept += end - start
		}
	}
	return kept, nil
}

// ProjectState is the reusable project kernel: the Projector's
// field-span gather with the output buffer kept in state and the page
// walked as one contiguous byte run.
type ProjectState struct {
	pj  *Projector
	buf []byte
}

// NewProjectState returns a project kernel state for the projector.
func NewProjectState(pj *Projector) *ProjectState { return new(ProjectState).Aim(pj) }

// Aim points the state at another projector, keeping its gather buffer.
func (s *ProjectState) Aim(pj *Projector) *ProjectState {
	s.pj = pj
	return s
}

// ProjectPage projects every tuple of the page and emits the results
// that survive the optional dedup tracker, returning how many. Sharing
// one tracker across pages implements the "hard" global duplicate
// elimination; giving each hash partition its own tracker implements the
// parallel algorithm (see HashPartition).
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
