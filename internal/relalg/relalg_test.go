package relalg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

func intSchema(t testing.TB, names ...string) *relation.Schema {
	t.Helper()
	attrs := make([]relation.Attr, len(names))
	for i, n := range names {
		attrs[i] = relation.Attr{Name: n, Type: relation.Int32}
	}
	s, err := relation.NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildRel builds a relation with rows[i] as tuple values.
func buildRel(t testing.TB, name string, s *relation.Schema, rows [][]int64) *relation.Relation {
	t.Helper()
	r := relation.MustNew(name, s, 256)
	for _, row := range rows {
		tup := make(relation.Tuple, len(row))
		for i, v := range row {
			tup[i] = relation.IntVal(v)
		}
		if err := r.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRestrict(t *testing.T) {
	s := intSchema(t, "id", "v")
	r := buildRel(t, "R", s, [][]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}})
	b, err := pred.Compare{Attr: "v", Op: pred.GT, Const: relation.IntVal(15)}.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	got := relation.MustNew("out", s, r.PageSize())
	for _, pg := range r.Pages() {
		if _, err := RestrictPage(pg, b, got.InsertRaw); err != nil {
			t.Fatalf("RestrictPage: %v", err)
		}
	}
	if got.Cardinality() != 3 {
		t.Errorf("RestrictPage kept %d tuples, want 3", got.Cardinality())
	}
	_ = got.Each(func(tup relation.Tuple) bool {
		if tup[1].Int <= 15 {
			t.Errorf("kept tuple %v violates predicate", tup)
		}
		return true
	})
}

// A restrict on an unknown attribute does not bind, and a delete (whose
// kernel is the restrict) refuses it with the relation untouched.
func TestRestrictBindError(t *testing.T) {
	s := intSchema(t, "id")
	r := buildRel(t, "R", s, [][]int64{{1}})
	p := pred.Compare{Attr: "nope", Op: pred.EQ, Const: relation.IntVal(1)}
	if _, err := p.Bind(s); err == nil {
		t.Error("restrict predicate with unknown attribute bound")
	}
	if _, err := Delete(r, p); err == nil || r.Cardinality() != 1 {
		t.Errorf("Delete with unknown attribute: %v, %d tuples left; want an error and 1", err, r.Cardinality())
	}
}

func TestAppend(t *testing.T) {
	s := intSchema(t, "id")
	dst := buildRel(t, "D", s, [][]int64{{1}, {2}})
	src := buildRel(t, "S", s, [][]int64{{3}, {4}, {5}})
	n, err := Append(dst, src)
	if err != nil || n != 3 {
		t.Fatalf("Append = %d, %v; want 3", n, err)
	}
	if dst.Cardinality() != 5 {
		t.Errorf("dst has %d tuples, want 5", dst.Cardinality())
	}
	other := buildRel(t, "O", intSchema(t, "a", "b"), nil)
	if _, err := Append(dst, other); err == nil {
		t.Error("Append with mismatched layout succeeded")
	}
}

func TestDelete(t *testing.T) {
	s := intSchema(t, "id")
	r := buildRel(t, "R", s, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}})
	n, err := Delete(r, pred.Compare{Attr: "id", Op: pred.GT, Const: relation.IntVal(4)})
	if err != nil || n != 2 {
		t.Fatalf("Delete = %d, %v; want 2", n, err)
	}
	if r.Cardinality() != 4 {
		t.Errorf("relation has %d tuples after delete, want 4", r.Cardinality())
	}
	_ = r.Each(func(tup relation.Tuple) bool {
		if tup[0].Int > 4 {
			t.Errorf("tuple %v survived delete", tup)
		}
		return true
	})
}

func TestNestedLoopsJoin(t *testing.T) {
	outer := buildRel(t, "O", intSchema(t, "id", "x"), [][]int64{{1, 100}, {2, 200}, {3, 300}})
	inner := buildRel(t, "I", intSchema(t, "fk", "y"), [][]int64{{1, 11}, {1, 12}, {3, 31}, {9, 99}})
	out, err := NestedLoopsJoin(outer, inner, pred.Equi("id", "fk"), "J")
	if err != nil {
		t.Fatalf("NestedLoopsJoin: %v", err)
	}
	if out.Cardinality() != 3 {
		t.Fatalf("join produced %d tuples, want 3", out.Cardinality())
	}
	if out.Schema().NumAttrs() != 4 {
		t.Errorf("join schema has %d attrs, want 4", out.Schema().NumAttrs())
	}
	_ = out.Each(func(tup relation.Tuple) bool {
		if tup[0].Int != tup[2].Int {
			t.Errorf("joined tuple %v violates condition", tup)
		}
		return true
	})
}

func TestJoinSchemaCollision(t *testing.T) {
	outer := buildRel(t, "O", intSchema(t, "id", "v"), nil)
	inner := buildRel(t, "I", intSchema(t, "id", "w"), nil)
	s, err := JoinSchema(outer, inner)
	if err != nil {
		t.Fatalf("JoinSchema: %v", err)
	}
	if !s.HasAttr("I.id") {
		t.Errorf("collision not prefixed: %s", s)
	}
}

func TestSortMergeJoinMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		oRows := make([][]int64, rng.Intn(40))
		for i := range oRows {
			oRows[i] = []int64{int64(rng.Intn(10)), int64(rng.Intn(100))}
		}
		iRows := make([][]int64, rng.Intn(40))
		for i := range iRows {
			iRows[i] = []int64{int64(rng.Intn(10)), int64(rng.Intn(100))}
		}
		outer := buildRel(t, "O", intSchema(t, "id", "x"), oRows)
		inner := buildRel(t, "I", intSchema(t, "fk", "y"), iRows)
		nl, err := NestedLoopsJoin(outer, inner, pred.Equi("id", "fk"), "NL")
		if err != nil {
			t.Fatal(err)
		}
		sm, err := SortMergeJoin(outer, inner, pred.Equi("id", "fk"), "SM")
		if err != nil {
			t.Fatal(err)
		}
		if !nl.EqualMultiset(sm) {
			t.Fatalf("trial %d: sort-merge (%d tuples) != nested loops (%d tuples)",
				trial, sm.Cardinality(), nl.Cardinality())
		}
	}
}

func TestSortMergeJoinResidualTerms(t *testing.T) {
	outer := buildRel(t, "O", intSchema(t, "id", "x"), [][]int64{{1, 5}, {1, 50}})
	inner := buildRel(t, "I", intSchema(t, "fk", "y"), [][]int64{{1, 10}, {1, 60}})
	cond := pred.JoinCond{Terms: []pred.JoinTerm{
		{Left: "id", Op: pred.EQ, Right: "fk"},
		{Left: "x", Op: pred.LT, Right: "y"},
	}}
	nl, err := NestedLoopsJoin(outer, inner, cond, "NL")
	if err != nil {
		t.Fatal(err)
	}
	sm, err := SortMergeJoin(outer, inner, cond, "SM")
	if err != nil {
		t.Fatal(err)
	}
	if !nl.EqualMultiset(sm) || nl.Cardinality() != 3 {
		t.Errorf("residual terms: nl=%d sm=%d, want both 3", nl.Cardinality(), sm.Cardinality())
	}
}

func TestSortMergeJoinNeedsEquiTerm(t *testing.T) {
	outer := buildRel(t, "O", intSchema(t, "a"), nil)
	inner := buildRel(t, "I", intSchema(t, "b"), nil)
	cond := pred.JoinCond{Terms: []pred.JoinTerm{{Left: "a", Op: pred.LT, Right: "b"}}}
	if _, err := SortMergeJoin(outer, inner, cond, "SM"); err == nil {
		t.Error("SortMergeJoin without equality term succeeded")
	}
}

func TestJoinPagesKernel(t *testing.T) {
	os := intSchema(t, "id")
	is := intSchema(t, "fk")
	op := relation.MustNewPage(256, os.TupleLen())
	ip := relation.MustNewPage(256, is.TupleLen())
	for _, v := range []int64{1, 2, 3} {
		if err := op.AppendTuple(os, relation.Tuple{relation.IntVal(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []int64{2, 3, 3} {
		if err := ip.AppendTuple(is, relation.Tuple{relation.IntVal(v)}); err != nil {
			t.Fatal(err)
		}
	}
	bound, err := pred.Equi("id", "fk").Bind(os, is)
	if err != nil {
		t.Fatal(err)
	}
	n, err := JoinPages(op, ip, bound, func([]byte) error { return nil })
	if err != nil || n != 3 {
		t.Errorf("JoinPages emitted %d, %v; want 3", n, err)
	}
}

// project runs the project kernel over r with one dedup tracker: the
// paper's project operator (unwanted attributes and duplicate tuples
// eliminated), as the serial executor runs it.
func project(t testing.TB, r *relation.Relation, names ...string) *relation.Relation {
	t.Helper()
	pj, err := NewProjector(r.Schema(), names...)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.MustNew("P", pj.OutSchema(), r.PageSize())
	ps, d := NewProjectState(pj), NewDedup()
	for _, pg := range r.Pages() {
		if _, err := ps.ProjectPage(pg, d, out.InsertRaw); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestProject(t *testing.T) {
	s := intSchema(t, "a", "b", "c")
	r := buildRel(t, "R", s, [][]int64{
		{1, 10, 100}, {1, 10, 200}, {2, 20, 300}, {2, 21, 400},
	})
	out := project(t, r, "a", "b")
	// Distinct (a, b) pairs: (1,10), (2,20), (2,21).
	if out.Cardinality() != 3 {
		t.Errorf("project produced %d tuples, want 3", out.Cardinality())
	}
	if out.Schema().NumAttrs() != 2 {
		t.Errorf("projected schema %s, want 2 attrs", out.Schema())
	}
	if _, err := NewProjector(s, "missing"); err == nil {
		t.Error("projector onto missing attribute built")
	}
}

func TestDedup(t *testing.T) {
	d := NewDedup()
	if !d.Add([]byte("x")) || d.Add([]byte("x")) || !d.Add([]byte("y")) {
		t.Error("Dedup.Add misbehaves")
	}
	if d.Len() != 2 {
		t.Errorf("Dedup.Len = %d, want 2", d.Len())
	}
}

func TestHashPartitionStable(t *testing.T) {
	raw := []byte{1, 2, 3, 4}
	p := HashPartition(raw, 8)
	for i := 0; i < 10; i++ {
		if HashPartition(raw, 8) != p {
			t.Fatal("HashPartition not deterministic")
		}
	}
	if p < 0 || p >= 8 {
		t.Errorf("partition %d out of range", p)
	}
	if HashPartition(raw, 1) != 0 || HashPartition(raw, 0) != 0 {
		t.Error("degenerate partition counts must map to 0")
	}
}

// TestQuickPartitionedProjectMatchesGlobal: deduplicating within hash
// partitions is equivalent to global dedup — the invariant that makes
// the parallel project algorithm correct.
func TestQuickPartitionedProjectMatchesGlobal(t *testing.T) {
	s := intSchema(t, "a", "b", "c")
	f := func(seed int64, nParts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := int(nParts%7) + 1
		rows := make([][]int64, 50)
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(4)), int64(rng.Intn(4)), int64(rng.Intn(1000))}
		}
		r := buildRel(t, "R", s, rows)
		global := project(t, r, "a", "b")
		// Partitioned: route each projected tuple to a partition, dedup
		// per partition, count the union.
		proj, err := NewProjector(s, "a", "b")
		if err != nil {
			return false
		}
		dedups := make([]*Dedup, parts)
		for i := range dedups {
			dedups[i] = NewDedup()
		}
		total := 0
		buf := make([]byte, 0, proj.OutSchema().TupleLen())
		r.EachRaw(func(raw []byte) bool {
			buf = proj.Apply(buf[:0], raw)
			if dedups[HashPartition(buf, parts)].Add(buf) {
				total++
			}
			return true
		})
		return total == global.Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinInvariants: every emitted pair satisfies the condition and
// the emitted count equals a brute-force reference count.
func TestQuickJoinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		oRows := make([][]int64, rng.Intn(30))
		for i := range oRows {
			oRows[i] = []int64{int64(rng.Intn(8))}
		}
		iRows := make([][]int64, rng.Intn(30))
		for i := range iRows {
			iRows[i] = []int64{int64(rng.Intn(8))}
		}
		outer := buildRel(t, "O", intSchema(t, "id"), oRows)
		inner := buildRel(t, "I", intSchema(t, "fk"), iRows)
		got, err := NestedLoopsJoin(outer, inner, pred.Equi("id", "fk"), "J")
		if err != nil {
			return false
		}
		want := 0
		for _, o := range oRows {
			for _, in := range iRows {
				if o[0] == in[0] {
					want++
				}
			}
		}
		if got.Cardinality() != want {
			return false
		}
		ok := true
		_ = got.Each(func(tup relation.Tuple) bool {
			if tup[0].Int != tup[1].Int {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
