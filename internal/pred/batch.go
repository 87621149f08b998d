package pred

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"dfdbm/internal/relation"
)

// Batched predicate evaluation: a bound predicate tree is compiled into
// a program over selection bitmaps. Instead of one Eval interface call
// per tuple, each compiled leaf decodes its attribute at a precomputed
// offset across the whole page (a gather into a column vector) and sets
// one bit per satisfied tuple; connectives combine the bitmaps with
// word-wide AND/OR/NOT. Any Bound implementation the compiler does not
// recognize falls back to per-tuple Eval for that subtree, so batched
// evaluation is always available and always agrees with the scalar
// path bit for bit.

// SelWords returns the number of 64-bit words a selection bitmap needs
// to cover n tuples.
func SelWords(n int) int { return (n + 63) / 64 }

// BatchPred is a predicate compiled for batched evaluation over the
// contiguous tuple bytes of one page. The program itself is never
// written after compilation — every evaluation works in the caller's
// BatchScratch — so one BatchPred serves any number of goroutines.
type BatchPred struct {
	root   batchNode
	vector bool
}

// BatchScratch is the mutable storage a batched evaluation works in: the
// column vectors a leaf gathers an attribute into, and one selection
// bitmap per nesting level of AND/OR. It grows to the largest page and
// the deepest program it has served and keeps that storage, so an
// evaluator that keeps one allocates nothing once warm, whichever
// program it runs. A BatchScratch must not be used from more than one
// goroutine at a time; the zero value is ready to use.
type BatchScratch struct {
	ints   [2][]int64
	floats [2][]float64
	sels   [][]uint64
}

func (s *BatchScratch) intCol(i, n int) []int64 {
	if cap(s.ints[i]) < n {
		s.ints[i] = make([]int64, n)
	}
	return s.ints[i][:n]
}

func (s *BatchScratch) floatCol(i, n int) []float64 {
	if cap(s.floats[i]) < n {
		s.floats[i] = make([]float64, n)
	}
	return s.floats[i][:n]
}

// sel is the bitmap of the AND/OR nodes at the given nesting depth.
func (s *BatchScratch) sel(depth, n int) []uint64 {
	for len(s.sels) <= depth {
		s.sels = append(s.sels, nil)
	}
	s.sels[depth] = sizeSel(s.sels[depth], n)
	return s.sels[depth]
}

// CompileBatch compiles a bound predicate for batched evaluation. It
// never fails: unrecognized Bound implementations are wrapped in a
// per-tuple fallback node.
func CompileBatch(b Bound) *BatchPred {
	bp := &BatchPred{vector: true}
	bp.root = compileBatch(b, &bp.vector, 0)
	return bp
}

// Vectorized reports whether the whole tree compiled to vector loops;
// false means at least one subtree runs the scalar Eval fallback.
func (bp *BatchPred) Vectorized() bool { return bp.vector }

// EvalBatch fills sel with the selection bitmap of the predicate over
// data, which holds n contiguous tuples of tupleLen bytes: bit i is set
// iff tuple i satisfies the predicate. sel must be at least SelWords(n)
// words long; bits at positions >= n are left zero. The evaluation
// works in s.
func (bp *BatchPred) EvalBatch(data []byte, tupleLen, n int, sel []uint64, s *BatchScratch) error {
	if n == 0 {
		return nil
	}
	return bp.root.eval(s, data, tupleLen, n, sel[:SelWords(n)])
}

// batchNode computes the complete selection bitmap of one predicate
// subtree. out arrives with unspecified contents and exactly
// SelWords(n) words; on return every bit < n reflects the subtree and
// every bit >= n is zero. Its column and connective scratch is s's.
type batchNode interface {
	eval(s *BatchScratch, data []byte, tupleLen, n int, out []uint64) error
}

// compileBatch compiles b; depth counts the AND/OR nodes above it, which
// numbers the scratch bitmap each connective takes.
func compileBatch(b Bound, vector *bool, depth int) batchNode {
	switch t := b.(type) {
	case boundCompare:
		a := t.schema.Attr(t.attr)
		off, width := t.schema.Offset(t.attr), a.ByteWidth()
		switch relation.KindFor(a.Type) {
		case relation.KindInt:
			return &batchCmpInt{off: off, width: width, op: t.op, k: t.konst.Int}
		case relation.KindFloat:
			return &batchCmpFloat{off: off, op: t.op, k: t.konst.Flt}
		case relation.KindString:
			return &batchCmpString{off: off, width: width, op: t.op, k: []byte(t.konst.Str)}
		}
	case boundCompareAttrs:
		aa, ab := t.schema.Attr(t.a), t.schema.Attr(t.b)
		node := &batchCmpAttrs{
			kind: relation.KindFor(aa.Type),
			op:   t.op,
			aOff: t.schema.Offset(t.a), aWidth: aa.ByteWidth(),
			bOff: t.schema.Offset(t.b), bWidth: ab.ByteWidth(),
		}
		return node
	case boundAnd:
		kids := make([]batchNode, len(t))
		for i, k := range t {
			kids[i] = compileBatch(k, vector, depth+1)
		}
		return &batchAnd{kids: kids, depth: depth}
	case boundOr:
		kids := make([]batchNode, len(t))
		for i, k := range t {
			kids[i] = compileBatch(k, vector, depth+1)
		}
		return &batchOr{kids: kids, depth: depth}
	case boundNot:
		return &batchNot{kid: compileBatch(t.kid, vector, depth)}
	case boundConst:
		return batchConst(t)
	}
	*vector = false
	return &batchFallback{b: b}
}

// bitmap helpers

func zeroSel(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}

func maskTail(s []uint64, n int) {
	if r := n & 63; r != 0 && len(s) > 0 {
		s[len(s)-1] &= (1 << uint(r)) - 1
	}
}

func sizeSel(s []uint64, n int) []uint64 {
	if w := SelWords(n); cap(s) < w {
		return make([]uint64, w)
	} else {
		return s[:w]
	}
}

// batchCmpInt compares an Int32/Int64 attribute against a constant:
// gather the column into an int64 vector, then one branch-predictable
// compare loop specialized by operator.
type batchCmpInt struct {
	off, width int
	op         Op
	k          int64
}

func (b *batchCmpInt) eval(s *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	if b.off+b.width > tupleLen {
		return fmt.Errorf("pred: %d-byte tuple too short for batched compare at offset %d width %d", tupleLen, b.off, b.width)
	}
	col := s.intCol(0, n)
	p := b.off
	if b.width == 8 {
		for i := 0; i < n; i++ {
			col[i] = int64(binary.LittleEndian.Uint64(data[p:]))
			p += tupleLen
		}
	} else {
		for i := 0; i < n; i++ {
			col[i] = int64(int32(binary.LittleEndian.Uint32(data[p:])))
			p += tupleLen
		}
	}
	zeroSel(out)
	k := b.k
	switch b.op {
	case EQ:
		for i, v := range col {
			if v == k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case NE:
		for i, v := range col {
			if v != k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case LT:
		for i, v := range col {
			if v < k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case LE:
		for i, v := range col {
			if v <= k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case GT:
		for i, v := range col {
			if v > k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case GE:
		for i, v := range col {
			if v >= k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	default:
		return fmt.Errorf("pred: unknown comparison operator %v", b.op)
	}
	return nil
}

// batchCmpFloat matches Value.Compare's float ordering exactly: NaN
// compares neither less nor greater than anything, so it lands on
// cmp == 0 — EQ/LE/GE hold, NE/LT/GT do not.
type batchCmpFloat struct {
	off int
	op  Op
	k   float64
}

func (b *batchCmpFloat) eval(s *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	if b.off+8 > tupleLen {
		return fmt.Errorf("pred: %d-byte tuple too short for batched compare at offset %d width 8", tupleLen, b.off)
	}
	col := s.floatCol(0, n)
	p := b.off
	for i := 0; i < n; i++ {
		col[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
		p += tupleLen
	}
	zeroSel(out)
	k := b.k
	switch b.op {
	case EQ:
		for i, v := range col {
			if !(v < k) && !(v > k) {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case NE:
		for i, v := range col {
			if v < k || v > k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case LT:
		for i, v := range col {
			if v < k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case LE:
		for i, v := range col {
			if !(v > k) {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case GT:
		for i, v := range col {
			if v > k {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case GE:
		for i, v := range col {
			if !(v < k) {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	default:
		return fmt.Errorf("pred: unknown comparison operator %v", b.op)
	}
	return nil
}

// batchCmpString compares a fixed-width string attribute against a
// constant in place — NUL padding trimmed exactly as DecodeValue does.
type batchCmpString struct {
	off, width int
	op         Op
	k          []byte
}

func (b *batchCmpString) eval(_ *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	if b.off+b.width > tupleLen {
		return fmt.Errorf("pred: %d-byte tuple too short for batched compare at offset %d width %d", tupleLen, b.off, b.width)
	}
	zeroSel(out)
	p := b.off
	for i := 0; i < n; i++ {
		if b.op.holds(bytes.Compare(trimNULs(data[p:p+b.width]), b.k)) {
			out[i>>6] |= 1 << uint(i&63)
		}
		p += tupleLen
	}
	return nil
}

// batchCmpAttrs compares two attributes of the same tuple.
type batchCmpAttrs struct {
	kind         relation.Kind
	op           Op
	aOff, aWidth int
	bOff, bWidth int
}

func (b *batchCmpAttrs) eval(s *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	if b.aOff+b.aWidth > tupleLen || b.bOff+b.bWidth > tupleLen {
		return fmt.Errorf("pred: %d-byte tuple too short for batched attribute compare", tupleLen)
	}
	zeroSel(out)
	switch b.kind {
	case relation.KindInt:
		ca, cb := s.intCol(0, n), s.intCol(1, n)
		gatherInt(data, tupleLen, n, b.aOff, b.aWidth, ca)
		gatherInt(data, tupleLen, n, b.bOff, b.bWidth, cb)
		switch b.op {
		case EQ:
			for i, v := range ca {
				if v == cb[i] {
					out[i>>6] |= 1 << uint(i&63)
				}
			}
		case NE:
			for i, v := range ca {
				if v != cb[i] {
					out[i>>6] |= 1 << uint(i&63)
				}
			}
		case LT:
			for i, v := range ca {
				if v < cb[i] {
					out[i>>6] |= 1 << uint(i&63)
				}
			}
		case LE:
			for i, v := range ca {
				if v <= cb[i] {
					out[i>>6] |= 1 << uint(i&63)
				}
			}
		case GT:
			for i, v := range ca {
				if v > cb[i] {
					out[i>>6] |= 1 << uint(i&63)
				}
			}
		case GE:
			for i, v := range ca {
				if v >= cb[i] {
					out[i>>6] |= 1 << uint(i&63)
				}
			}
		default:
			return fmt.Errorf("pred: unknown comparison operator %v", b.op)
		}
	case relation.KindFloat:
		ca, cb := s.floatCol(0, n), s.floatCol(1, n)
		gatherFloat(data, tupleLen, n, b.aOff, ca)
		gatherFloat(data, tupleLen, n, b.bOff, cb)
		for i, v := range ca {
			w := cb[i]
			cmp := 0
			switch {
			case v < w:
				cmp = -1
			case v > w:
				cmp = 1
			}
			if b.op.holds(cmp) {
				out[i>>6] |= 1 << uint(i&63)
			}
		}
	case relation.KindString:
		pa, pb := b.aOff, b.bOff
		for i := 0; i < n; i++ {
			cmp := bytes.Compare(trimNULs(data[pa:pa+b.aWidth]), trimNULs(data[pb:pb+b.bWidth]))
			if b.op.holds(cmp) {
				out[i>>6] |= 1 << uint(i&63)
			}
			pa += tupleLen
			pb += tupleLen
		}
	default:
		return fmt.Errorf("pred: unknown attribute kind %d", b.kind)
	}
	return nil
}

func gatherInt(data []byte, tupleLen, n, off, width int, col []int64) {
	p := off
	if width == 8 {
		for i := 0; i < n; i++ {
			col[i] = int64(binary.LittleEndian.Uint64(data[p:]))
			p += tupleLen
		}
	} else {
		for i := 0; i < n; i++ {
			col[i] = int64(int32(binary.LittleEndian.Uint32(data[p:])))
			p += tupleLen
		}
	}
}

func gatherFloat(data []byte, tupleLen, n, off int, col []float64) {
	p := off
	for i := 0; i < n; i++ {
		col[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
		p += tupleLen
	}
}

type batchAnd struct {
	kids  []batchNode
	depth int
}

func (b *batchAnd) eval(s *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	if err := b.kids[0].eval(s, data, tupleLen, n, out); err != nil {
		return err
	}
	if len(b.kids) > 1 {
		scratch := s.sel(b.depth, n)
		for _, k := range b.kids[1:] {
			if err := k.eval(s, data, tupleLen, n, scratch); err != nil {
				return err
			}
			for i := range out {
				out[i] &= scratch[i]
			}
		}
	}
	return nil
}

type batchOr struct {
	kids  []batchNode
	depth int
}

func (b *batchOr) eval(s *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	if err := b.kids[0].eval(s, data, tupleLen, n, out); err != nil {
		return err
	}
	if len(b.kids) > 1 {
		scratch := s.sel(b.depth, n)
		for _, k := range b.kids[1:] {
			if err := k.eval(s, data, tupleLen, n, scratch); err != nil {
				return err
			}
			for i := range out {
				out[i] |= scratch[i]
			}
		}
	}
	return nil
}

type batchNot struct{ kid batchNode }

func (b *batchNot) eval(s *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	if err := b.kid.eval(s, data, tupleLen, n, out); err != nil {
		return err
	}
	for i := range out {
		out[i] = ^out[i]
	}
	maskTail(out, n)
	return nil
}

type batchConst bool

func (b batchConst) eval(_ *BatchScratch, _ []byte, _, n int, out []uint64) error {
	if !b {
		zeroSel(out)
		return nil
	}
	for i := range out {
		out[i] = ^uint64(0)
	}
	maskTail(out, n)
	return nil
}

// batchFallback runs an unrecognized Bound per tuple — the scalar
// escape hatch that keeps batched evaluation total over the Bound
// interface.
type batchFallback struct{ b Bound }

func (b *batchFallback) eval(_ *BatchScratch, data []byte, tupleLen, n int, out []uint64) error {
	zeroSel(out)
	p := 0
	for i := 0; i < n; i++ {
		ok, err := b.b.Eval(data[p : p+tupleLen])
		if err != nil {
			return err
		}
		if ok {
			out[i>>6] |= 1 << uint(i&63)
		}
		p += tupleLen
	}
	return nil
}
