package pred

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"dfdbm/internal/relation"
)

// JoinCond is a conjunction of attribute comparisons between an outer
// (left) and an inner (right) relation — the "conditional cross product"
// condition of the paper's join operator. An equi-join has a single term
// with Op == EQ.
type JoinCond struct {
	Terms []JoinTerm
}

// JoinTerm compares one attribute of the outer relation with one of the
// inner relation.
type JoinTerm struct {
	Left  string
	Op    Op
	Right string
}

// Equi returns an equi-join condition on the named attributes.
func Equi(left, right string) JoinCond {
	return JoinCond{Terms: []JoinTerm{{Left: left, Op: EQ, Right: right}}}
}

// String renders the condition in surface syntax.
func (c JoinCond) String() string {
	s := ""
	for i, t := range c.Terms {
		if i > 0 {
			s += " and "
		}
		s += fmt.Sprintf("%s %s %s", t.Left, t.Op, t.Right)
	}
	return s
}

// Bind resolves the condition against the outer and inner schemas,
// returning an evaluator over pairs of encoded tuples.
func (c JoinCond) Bind(left, right *relation.Schema) (*BoundJoin, error) {
	if len(c.Terms) == 0 {
		return nil, fmt.Errorf("pred: join condition has no terms")
	}
	b := &BoundJoin{left: left, right: right}
	for _, t := range c.Terms {
		li, err := left.Index(t.Left)
		if err != nil {
			return nil, fmt.Errorf("pred: join outer side: %w", err)
		}
		ri, err := right.Index(t.Right)
		if err != nil {
			return nil, fmt.Errorf("pred: join inner side: %w", err)
		}
		kind := relation.KindFor(left.Attr(li).Type)
		if kind != relation.KindFor(right.Attr(ri).Type) {
			return nil, fmt.Errorf("pred: join attributes %q and %q are not comparable", t.Left, t.Right)
		}
		b.terms = append(b.terms, boundJoinTerm{
			li: li, op: t.Op, ri: ri,
			kind:   kind,
			lOff:   left.Offset(li),
			lWidth: left.Attr(li).ByteWidth(),
			rOff:   right.Offset(ri),
			rWidth: right.Attr(ri).ByteWidth(),
		})
	}
	return b, nil
}

// BoundJoin is a join condition bound to an (outer, inner) schema pair.
type BoundJoin struct {
	left, right *relation.Schema
	terms       []boundJoinTerm
}

// boundJoinTerm carries the precomputed byte layout of both sides so
// that EvalPair can compare encoded attributes in place — no Value
// boxing, no per-tuple allocation.
type boundJoinTerm struct {
	li, ri       int
	op           Op
	kind         relation.Kind
	lOff, lWidth int
	rOff, rWidth int
}

// EvalPair reports whether the encoded outer/inner tuple pair satisfies
// the condition. It compares the raw attribute bytes directly, with the
// same semantics as DecodeValue + Value.Compare.
func (b *BoundJoin) EvalPair(leftRaw, rightRaw []byte) (bool, error) {
	for i := range b.terms {
		t := &b.terms[i]
		if t.lOff+t.lWidth > len(leftRaw) {
			return false, fmt.Errorf("pred: raw outer tuple too short for attribute %q", b.left.Attr(t.li).Name)
		}
		if t.rOff+t.rWidth > len(rightRaw) {
			return false, fmt.Errorf("pred: raw inner tuple too short for attribute %q", b.right.Attr(t.ri).Name)
		}
		var cmp int
		switch t.kind {
		case relation.KindInt:
			cmp = compareInt(decodeInt(leftRaw[t.lOff:], t.lWidth), decodeInt(rightRaw[t.rOff:], t.rWidth))
		case relation.KindFloat:
			// Float ordering matches Value.Compare: NaN compares
			// neither less nor greater, so it lands on cmp == 0.
			lf := math.Float64frombits(binary.LittleEndian.Uint64(leftRaw[t.lOff:]))
			rf := math.Float64frombits(binary.LittleEndian.Uint64(rightRaw[t.rOff:]))
			switch {
			case lf < rf:
				cmp = -1
			case lf > rf:
				cmp = 1
			default:
				cmp = 0
			}
		case relation.KindString:
			cmp = bytes.Compare(trimNULs(leftRaw[t.lOff:t.lOff+t.lWidth]), trimNULs(rightRaw[t.rOff:t.rOff+t.rWidth]))
		default:
			return false, fmt.Errorf("pred: unknown join term kind %d", t.kind)
		}
		if !t.op.holds(cmp) {
			return false, nil
		}
	}
	return true, nil
}

// decodeInt reads a little-endian signed integer of width 4 or 8 —
// exactly the encodings of the Int32 and Int64 storage types.
func decodeInt(raw []byte, width int) int64 {
	if width == 4 {
		return int64(int32(binary.LittleEndian.Uint32(raw)))
	}
	return int64(binary.LittleEndian.Uint64(raw))
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// trimNULs strips the NUL padding the fixed-width string encoding
// appends, yielding the logical string bytes without allocating.
func trimNULs(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return b[:end]
}

// HashKey describes the byte layout of a join's hash key: the first
// equality term whose raw encoding is canonicalizable to a value-equal
// byte key. Int32/Int64 keys canonicalize to a little-endian int64;
// string keys canonicalize by trimming NUL padding. Float terms are
// excluded — their value equality (-0 == +0, and Compare's NaN == NaN)
// is not byte equality.
type HashKey struct {
	Kind         relation.Kind
	LOff, LWidth int
	ROff, RWidth int
}

// HashKey returns the layout of the first hashable equality term, if
// any. A hash kernel may bucket on this key and must re-verify
// candidates with EvalPair (which also applies residual terms).
func (b *BoundJoin) HashKey() (HashKey, bool) {
	for i := range b.terms {
		t := &b.terms[i]
		if t.op != EQ {
			continue
		}
		if t.kind != relation.KindInt && t.kind != relation.KindString {
			continue
		}
		return HashKey{
			Kind: t.kind,
			LOff: t.lOff, LWidth: t.lWidth,
			ROff: t.rOff, RWidth: t.rWidth,
		}, true
	}
	return HashKey{}, false
}

// LeftKeyUint64 returns the canonical 64-bit key of the outer tuple's
// hash attribute without materializing key bytes: for int keys it is
// the sign-extended value itself (so equal keys are exactly equal
// values); for string keys it is a 64-bit FNV-1a hash of the
// NUL-trimmed bytes (equal values produce equal keys, but a key match
// must still be re-verified with EvalPair).
func (k HashKey) LeftKeyUint64(raw []byte) uint64 {
	return k.keyUint64(raw, k.LOff, k.LWidth)
}

// RightKeyUint64 is LeftKeyUint64 for the inner tuple.
func (k HashKey) RightKeyUint64(raw []byte) uint64 {
	return k.keyUint64(raw, k.ROff, k.RWidth)
}

func (k HashKey) keyUint64(raw []byte, off, width int) uint64 {
	if k.Kind == relation.KindInt {
		return uint64(decodeInt(raw[off:], width))
	}
	// Inline FNV-1a 64 over the trimmed string bytes: no allocation.
	h := uint64(14695981039346656037)
	b := trimNULs(raw[off : off+width])
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// SingleIntEqui reports whether the condition is exactly one equality
// term over integer attributes. For such conditions the canonical
// uint64 key IS the join value, so a hash kernel may treat key equality
// as a confirmed match and skip EvalPair re-verification entirely.
func (b *BoundJoin) SingleIntEqui() bool {
	return len(b.terms) == 1 && b.terms[0].op == EQ && b.terms[0].kind == relation.KindInt
}

// FirstEqui returns the bound attribute indexes of the first EQ term, if
// any. Sort-merge join uses it to pick its sort keys.
func (b *BoundJoin) FirstEqui() (leftIdx, rightIdx int, ok bool) {
	for _, t := range b.terms {
		if t.op == EQ {
			return t.li, t.ri, true
		}
	}
	return 0, 0, false
}
