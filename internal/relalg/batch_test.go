package relalg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

// Seeded property tests: the batched kernels must be byte-identical —
// same tuples, same order — to their references (the scalar restrict, a
// per-tuple project deduplicated through a map) for every schema, page
// size, predicate shape, and selectivity the generator produces.
// The generator covers every attribute type, vectorizable and
// fallback predicate trees, NaN floats, empty pages, and duplicates.

type kernelGen struct {
	rng *rand.Rand
}

func (g *kernelGen) schema() *relation.Schema {
	nattrs := 2 + g.rng.Intn(5)
	attrs := make([]relation.Attr, nattrs)
	for i := range attrs {
		a := relation.Attr{Name: fmt.Sprintf("a%d", i)}
		switch g.rng.Intn(4) {
		case 0:
			a.Type = relation.Int32
		case 1:
			a.Type = relation.Int64
		case 2:
			a.Type = relation.Float64
		default:
			a.Type = relation.String
			a.Width = 4 + g.rng.Intn(12)
		}
		attrs[i] = a
	}
	s, err := relation.NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

func (g *kernelGen) value(a relation.Attr) relation.Value {
	switch a.Type {
	case relation.Int32, relation.Int64:
		// Small domain: predicates hit every selectivity band and
		// projections produce duplicates.
		return relation.IntVal(int64(g.rng.Intn(16)))
	case relation.Float64:
		if g.rng.Intn(16) == 0 {
			return relation.FloatVal(math.NaN())
		}
		return relation.FloatVal(float64(g.rng.Intn(16)) / 2)
	default:
		return relation.StringVal(string(rune('a' + g.rng.Intn(6))))
	}
}

func (g *kernelGen) relation(s *relation.Schema, name string) *relation.Relation {
	pageSizes := []int{128, 256, 512, 2048}
	pageSize := pageSizes[g.rng.Intn(len(pageSizes))]
	for pageSize < relation.PageHeaderLen+s.TupleLen() {
		pageSize *= 2
	}
	r, err := relation.New(name, s, pageSize)
	if err != nil {
		panic(err)
	}
	n := g.rng.Intn(300)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, s.NumAttrs())
		for j := range t {
			t[j] = g.value(s.Attr(j))
		}
		if err := r.Insert(t); err != nil {
			panic(err)
		}
	}
	return r
}

// predicate builds a random predicate tree over the schema, mixing
// vectorizable leaves with shapes the batch compiler falls back on.
func (g *kernelGen) predicate(s *relation.Schema, depth int) pred.Pred {
	ops := []pred.Op{pred.EQ, pred.NE, pred.LT, pred.LE, pred.GT, pred.GE}
	op := ops[g.rng.Intn(len(ops))]
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			// Attribute-vs-attribute on a same-type pair, if one exists.
			for try := 0; try < 8; try++ {
				i, j := g.rng.Intn(s.NumAttrs()), g.rng.Intn(s.NumAttrs())
				if i != j && s.Attr(i).Type == s.Attr(j).Type {
					return pred.CompareAttrs{A: s.Attr(i).Name, Op: op, B: s.Attr(j).Name}
				}
			}
			fallthrough
		case 1, 2:
			a := s.Attr(g.rng.Intn(s.NumAttrs()))
			return pred.Compare{Attr: a.Name, Op: op, Const: g.value(a)}
		default:
			return pred.Const(g.rng.Intn(2) == 0)
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		return pred.Conj(g.predicate(s, depth-1), g.predicate(s, depth-1))
	case 1:
		return pred.Disj(g.predicate(s, depth-1), g.predicate(s, depth-1))
	default:
		return pred.Not{Kid: g.predicate(s, depth-1)}
	}
}

// collect returns an EmitFunc appending copies of the emitted raw
// tuples to dst.
func collect(dst *[][]byte) EmitFunc {
	return func(raw []byte) error {
		*dst = append(*dst, append([]byte(nil), raw...))
		return nil
	}
}

func diffStreams(t *testing.T, label string, want, got [][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: scalar emitted %d tuples, batch %d", label, len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("%s: tuple %d differs:\nscalar %x\nbatch  %x", label, i, want[i], got[i])
		}
	}
}

func TestBatchKernelsMatchScalar(t *testing.T) {
	// shared is re-aimed at every seed's predicate, so one scratch serves
	// programs of every shape, column kind and page size in turn.
	var shared RestrictState
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := &kernelGen{rng: rand.New(rand.NewSource(seed))}
			s := g.schema()
			rel := g.relation(s, "prop")
			p := g.predicate(s, 2)
			bound, err := p.Bind(s)
			if err != nil {
				t.Fatalf("bind %s: %v", p, err)
			}

			// Restrict: scalar vs batched, page by page.
			var scalar, batch, reaimed [][]byte
			rs := NewRestrictState(bound)
			shared.Aim(pred.CompileBatch(bound))
			for _, pg := range rel.Pages() {
				if _, err := RestrictPage(pg, bound, collect(&scalar)); err != nil {
					t.Fatal(err)
				}
				if _, err := rs.RestrictPage(pg, collect(&batch)); err != nil {
					t.Fatal(err)
				}
				if _, err := shared.RestrictPage(pg, collect(&reaimed)); err != nil {
					t.Fatal(err)
				}
			}
			diffStreams(t, fmt.Sprintf("restrict %s (vectorized=%v)", p, rs.Vectorized()), scalar, batch)
			diffStreams(t, fmt.Sprintf("re-aimed restrict %s", p), scalar, reaimed)

			// Project (with duplicate elimination): per tuple vs batched.
			i := g.rng.Intn(s.NumAttrs())
			cols := []string{s.Attr(i).Name}
			if j := g.rng.Intn(s.NumAttrs()); j != i && g.rng.Intn(2) == 0 {
				cols = append(cols, s.Attr(j).Name)
			}
			pj, err := NewProjector(s, cols...)
			if err != nil {
				t.Fatal(err)
			}
			var sproj, bproj [][]byte
			seen := map[string]bool{}
			rel.EachRaw(func(raw []byte) bool {
				out := pj.Apply(nil, raw)
				if !seen[string(out)] {
					seen[string(out)] = true
					sproj = append(sproj, out)
				}
				return true
			})
			bd, ps := NewDedup(), NewProjectState(pj)
			for _, pg := range rel.Pages() {
				if _, err := ps.ProjectPage(pg, bd, collect(&bproj)); err != nil {
					t.Fatal(err)
				}
			}
			diffStreams(t, fmt.Sprintf("project %v", cols), sproj, bproj)
		})
	}
}

// TestHashJoinMatchesNestedRandom drives the flat-table hash join
// against the nested-loops reference over random key types, duplicate
// distributions, and page sizes.
func TestHashJoinMatchesNestedRandom(t *testing.T) {
	types := []relation.Attr{
		{Name: "k", Type: relation.Int32},
		{Name: "k", Type: relation.Int64},
		{Name: "k", Type: relation.String, Width: 8},
	}
	for seed := int64(0); seed < 30; seed++ {
		g := &kernelGen{rng: rand.New(rand.NewSource(1000 + seed))}
		kattr := types[g.rng.Intn(len(types))]
		mk := func(name string) *relation.Relation {
			s := relation.MustSchema(kattr, relation.Attr{Name: name + "v", Type: relation.Int64})
			r, err := relation.New(name, s, 256)
			if err != nil {
				t.Fatal(err)
			}
			n := g.rng.Intn(120)
			for i := 0; i < n; i++ {
				if err := r.Insert(relation.Tuple{g.value(kattr), relation.IntVal(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			return r
		}
		outer, inner := mk("o"), mk("i")
		cond := pred.Equi("k", "k")
		want, err := NestedLoopsJoin(outer, inner, cond, "ref")
		if err != nil {
			t.Fatal(err)
		}
		got, err := HashJoin(outer, inner, cond, "ref")
		if err != nil {
			t.Fatal(err)
		}
		if want.Cardinality() != got.Cardinality() || !want.EqualMultiset(got) {
			t.Fatalf("seed %d (%s keys): hash join differs from nested loops (%d vs %d tuples)",
				seed, kattr.Type, got.Cardinality(), want.Cardinality())
		}
	}
}

// TestDedupResetReuse is the satellite regression test: a Dedup reused
// through Reset must not allocate on the steady state — the bucket map,
// its span slices, and the arena all survive truncation.
func TestDedupResetReuse(t *testing.T) {
	raws := make([][]byte, 64)
	for i := range raws {
		raws[i] = []byte(fmt.Sprintf("tuple-%02d", i%16)) // duplicates included
	}
	d := NewDedup()
	warm := func() {
		d.Reset()
		for _, r := range raws {
			d.Add(r)
		}
	}
	warm() // size the arena and buckets
	if avg := testing.AllocsPerRun(50, warm); avg != 0 {
		t.Fatalf("Dedup reuse after Reset allocated %.1f times per run, want 0", avg)
	}
	// Reset must actually forget: every tuple is fresh again.
	d.Reset()
	for i, r := range raws[:16] {
		if !d.Add(r) {
			t.Fatalf("tuple %d reported duplicate after Reset", i)
		}
	}
}
