package relation

import (
	"testing"
)

func fillRelation(t testing.TB, name string, n int) *Relation {
	t.Helper()
	s := paperSchema(t)
	r := MustNew(name, s, AnalysisPageSize)
	for i := 0; i < n; i++ {
		tup := Tuple{IntVal(int64(i)), IntVal(int64(i % 7)), IntVal(int64(i % 3)), StringVal("row")}
		if err := r.Insert(tup); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	return r
}

func TestRelationInsertPaging(t *testing.T) {
	r := fillRelation(t, "R", 25)
	if got := r.Cardinality(); got != 25 {
		t.Errorf("Cardinality = %d, want 25", got)
	}
	// Capacity is 9 per page: 25 tuples need 3 pages.
	if got := r.NumPages(); got != 3 {
		t.Errorf("NumPages = %d, want 3", got)
	}
	for i := 0; i < r.NumPages()-1; i++ {
		if !r.Page(i).Full() {
			t.Errorf("page %d not full", i)
		}
	}
}

func TestRelationEachOrder(t *testing.T) {
	r := fillRelation(t, "R", 12)
	var ids []int64
	if err := r.Each(func(tup Tuple) bool {
		ids = append(ids, tup[0].Int)
		return true
	}); err != nil {
		t.Fatalf("Each: %v", err)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("ids[%d] = %d, want %d", i, id, i)
		}
	}
}

func TestRelationEachEarlyStop(t *testing.T) {
	r := fillRelation(t, "R", 12)
	count := 0
	_ = r.Each(func(Tuple) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("Each visited %d tuples after early stop, want 5", count)
	}
	count = 0
	r.EachRaw(func([]byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("EachRaw visited %d tuples after early stop, want 3", count)
	}
}

func TestRelationValidation(t *testing.T) {
	s := paperSchema(t)
	if _, err := New("", s, 1000); err == nil {
		t.Error("New with empty name succeeded")
	}
	if _, err := New("R", s, 10); err == nil {
		t.Error("New with tiny page size succeeded")
	}
	r := MustNew("R", s, 1000)
	if err := r.Insert(Tuple{IntVal(1)}); err == nil {
		t.Error("Insert of short tuple succeeded")
	}
	bad := MustNewPage(1000, 50)
	if err := r.AppendPage(bad); err == nil {
		t.Error("AppendPage with mismatched tuple length succeeded")
	}
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := fillRelation(t, "R", 5)
	c := r.Clone("C")
	if c.Name() != "C" || !c.EqualMultiset(r) {
		t.Fatal("Clone differs from original")
	}
	c.Page(0).RawTuple(0)[0] ^= 0xFF
	if c.EqualMultiset(r) {
		t.Error("mutating clone changed original (shallow copy)")
	}
}

func TestRelationEqualMultiset(t *testing.T) {
	a := fillRelation(t, "A", 10)
	b := fillRelation(t, "B", 10)
	if !a.EqualMultiset(b) {
		t.Error("identical relations not multiset-equal")
	}
	c := fillRelation(t, "C", 9)
	if a.EqualMultiset(c) {
		t.Error("different-cardinality relations multiset-equal")
	}
	// Same cardinality, different contents.
	d := fillRelation(t, "D", 9)
	_ = d.Insert(Tuple{IntVal(999), IntVal(0), IntVal(0), StringVal("zz")})
	if a.EqualMultiset(d) {
		t.Error("different relations multiset-equal")
	}
}

func TestRelationByteSize(t *testing.T) {
	r := fillRelation(t, "R", 9) // exactly one full page
	want := PageHeaderLen + 9*100
	if got := r.ByteSize(); got != want {
		t.Errorf("ByteSize = %d, want %d", got, want)
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Int32: "int32", Int64: "int64", Float64: "float64", String: "string", Type(9): "type(9)",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("Type.String = %q, want %q", got, want)
		}
	}
}

func TestTupleClone(t *testing.T) {
	orig := Tuple{IntVal(1), StringVal("a")}
	c := orig.Clone()
	c[0] = IntVal(2)
	if orig[0].Int != 1 {
		t.Error("Tuple.Clone shares storage")
	}
}
