package relalg

import (
	"bytes"
	"math/rand"
	"testing"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

// pagedOut is the Out a worker is: a paginator whose current page the
// kernels write into, keeping the pages it fills. It counts Writes.
type pagedOut struct {
	pgtor  relation.Paginator
	pages  []*relation.Page
	writes int
}

func (o *pagedOut) keep(full *relation.Page) {
	if full != nil {
		o.pages = append(o.pages, full)
	}
}

func (o *pagedOut) Write(tuples []byte) error {
	o.writes++
	o.pgtor.Write(tuples, o.keep)
	return nil
}

func (o *pagedOut) Room() []byte { return o.pgtor.Room() }

func (o *pagedOut) Commit(n int) error {
	o.keep(o.pgtor.Commit(n))
	return nil
}

// flush closes the output: every page but the last must be full, and
// their tuples, in order, are the stream the kernels wrote.
func (o *pagedOut) flush(t *testing.T) []byte {
	t.Helper()
	o.keep(o.pgtor.Flush())
	var stream []byte
	for i, pg := range o.pages {
		if i < len(o.pages)-1 && !pg.Full() {
			t.Fatalf("output page %d of %d left with %d of %d tuples", i, len(o.pages), pg.TupleCount(), pg.Capacity())
		}
		stream = append(stream, pg.Data()...)
	}
	return stream
}

// emitted collects what an EmitFunc kernel hands over, as one stream.
func emitted(dst *[]byte) EmitFunc {
	return func(raw []byte) error {
		*dst = append(*dst, raw...)
		return nil
	}
}

// fusedRelation builds a relation of (k, v, pad) tuples: k an int or
// string join key from a small domain, v the restrict attribute, pad a
// string of padWidth bytes that sets the tuple length. The page leaves
// slack bytes past its last tuple. v follows mode: 0 random, 1 all 1,
// 2 all 0, 3 alternating 1, 0.
func fusedRelation(rng *rand.Rand, name string, stringKey bool, padWidth, perPage, slack, n, mode int) *relation.Relation {
	key := relation.Attr{Name: "k", Type: relation.Int32}
	if stringKey {
		key = relation.Attr{Name: "k", Type: relation.String, Width: 3}
	}
	s := relation.MustSchema(key,
		relation.Attr{Name: "v", Type: relation.Int32},
		relation.Attr{Name: "pad", Type: relation.String, Width: padWidth})
	r := relation.MustNew(name, s, relation.PageHeaderLen+perPage*s.TupleLen()+slack)
	for i := 0; i < n; i++ {
		var k relation.Value
		if stringKey {
			k = relation.StringVal([]string{"a", "ab", "b", "ba", "c"}[rng.Intn(5)])
		} else {
			k = relation.IntVal(int64(rng.Intn(5)))
		}
		v := int64(rng.Intn(2))
		switch mode {
		case 1, 2:
			v = int64(2 - mode)
		case 3:
			v = int64(1 - i%2)
		}
		pad := relation.StringVal(string(rune('a' + rng.Intn(26))))
		if err := r.Insert(relation.Tuple{k, relation.IntVal(v), pad}); err != nil {
			panic(err)
		}
	}
	return r
}

// FuzzFusedKernels: the fused restrict and join kernels, writing into
// output pages, produce exactly the bytes, in order, of the scalar
// RestrictPage and the nested-loops JoinPages, which share none of their
// code. The inputs draw tuple lengths that leave slack at a page's end,
// output pages already part-filled and small enough that runs and join
// results cross their boundaries, all-, none- and alternately-qualifying
// bitmaps, and string keys, whose hash matches the kernel re-checks. The
// restrict writes each maximal run of qualifying tuples with one Write,
// and the EmitFunc forms, RestrictState.RestrictPage and
// JoinState.JoinPages, emit the same bytes as their references.
func FuzzFusedKernels(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(7), uint8(19), uint8(3), uint8(2), uint8(2))
	f.Add(int64(3), uint8(30), uint8(70), uint8(1), uint8(5), uint8(3))
	f.Add(int64(4), uint8(61), uint8(130), uint8(6), uint8(0), uint8(4))
	f.Add(int64(5), uint8(200), uint8(99), uint8(255), uint8(9), uint8(7))
	f.Add(int64(6), uint8(3), uint8(150), uint8(4), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, width, perPage, outTuples, prefill, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		stringKey := mode&4 != 0
		padWidth := 1 + int(width)%40
		slack := int(width) % 7
		// Past 64 tuples to a page, runs cross bitmap words.
		outer := fusedRelation(rng, "o", stringKey, padWidth, 1+int(perPage)%160, slack, rng.Intn(400), int(mode)%4)
		inner := fusedRelation(rng, "i", stringKey, padWidth, 1+rng.Intn(20), slack, rng.Intn(60), 0)

		// Restrict v = 1: all, none, alternating or random by mode.
		b, err := pred.Compare{Attr: "v", Op: pred.EQ, Const: relation.IntVal(1)}.Bind(outer.Schema())
		if err != nil {
			t.Fatal(err)
		}
		tl := outer.Schema().TupleLen()
		out, want := newPagedOut(t, tl, int(outTuples), slack, int(prefill))
		rs := NewRestrictState(b)
		var scalar, adapted []byte
		runs := 0 // maximal runs of qualifying tuples
		for _, pg := range outer.Pages() {
			if _, err := RestrictPage(pg, b, emitted(&scalar)); err != nil {
				t.Fatal(err)
			}
			if _, err := rs.RestrictInto(pg, out); err != nil {
				t.Fatal(err)
			}
			if _, err := rs.RestrictPage(pg, emitted(&adapted)); err != nil {
				t.Fatal(err)
			}
			prev := false
			for i := 0; i < pg.TupleCount(); i++ {
				ok, _ := b.Eval(pg.RawTuple(i))
				if ok && !prev {
					runs++
				}
				prev = ok
			}
		}
		want = append(want, scalar...)
		if got := out.flush(t); !bytes.Equal(got, want) {
			t.Fatalf("restrict: fused wrote %d bytes, scalar %d, or they differ", len(got), len(want))
		}
		if out.writes != runs {
			t.Fatalf("restrict: %d Writes for %d maximal runs", out.writes, runs)
		}
		if !bytes.Equal(adapted, scalar) {
			t.Fatalf("restrict: RestrictState.RestrictPage emitted %d bytes, scalar %d, or they differ", len(adapted), len(scalar))
		}

		// Join on k = k: hash, with the full condition re-checked on
		// string keys, and nested loops on k < k.
		for _, op := range []pred.Op{pred.EQ, pred.LT} {
			cond, err := pred.JoinCond{Terms: []pred.JoinTerm{{Left: "k", Op: op, Right: "k"}}}.Bind(outer.Schema(), inner.Schema())
			if err != nil {
				t.Fatal(err)
			}
			jtl := tl + inner.Schema().TupleLen()
			out, want := newPagedOut(t, jtl, int(outTuples), slack, int(prefill))
			st := NewJoinState(cond, nil)
			var nested, adapted []byte
			for _, op := range outer.Pages() {
				for _, ip := range inner.Pages() {
					if _, err := JoinPages(op, ip, cond, emitted(&nested)); err != nil {
						t.Fatal(err)
					}
					if _, err := st.JoinInto(op, ip, out); err != nil {
						t.Fatal(err)
					}
					if _, err := st.JoinPages(op, ip, emitted(&adapted)); err != nil {
						t.Fatal(err)
					}
				}
			}
			want = append(want, nested...)
			if got := out.flush(t); !bytes.Equal(got, want) {
				t.Fatalf("join %s (%s kernel): fused wrote %d bytes, nested loops %d, or they differ",
					op, st.Kernel(), len(got), len(want))
			}
			if !bytes.Equal(adapted, nested) {
				t.Fatalf("join %s (%s kernel): JoinState.JoinPages emitted %d bytes, nested loops %d, or they differ",
					op, st.Kernel(), len(adapted), len(nested))
			}
		}
	})
}

// newPagedOut returns an Out of pages with room for 1 to 8 tuples of tl
// bytes plus slack, its first page already holding prefill of them (fewer
// than fit), and the stream those filler tuples begin.
func newPagedOut(t *testing.T, tl, outTuples, slack, prefill int) (*pagedOut, []byte) {
	t.Helper()
	per := 1 + outTuples%8
	out := &pagedOut{}
	out.pgtor.Reset(relation.PageHeaderLen+per*tl+slack, tl)
	var stream []byte
	for i := 0; i < prefill%per; i++ {
		filler := bytes.Repeat([]byte{byte(0xF0 + i)}, tl)
		full, err := out.pgtor.Add(filler)
		if err != nil {
			t.Fatal(err)
		}
		out.keep(full)
		stream = append(stream, filler...)
	}
	return out, stream
}
