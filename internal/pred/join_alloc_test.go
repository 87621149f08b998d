package pred

import (
	"testing"

	"dfdbm/internal/relation"
)

// TestEvalPairNoAllocs pins the hot-path property the engines rely on:
// evaluating a bound join condition over raw tuples — int, float, and
// string terms — allocates nothing per pair.
func TestEvalPairNoAllocs(t *testing.T) {
	left, err := relation.NewSchema(
		relation.Attr{Name: "a", Type: relation.Int32},
		relation.Attr{Name: "f", Type: relation.Float64},
		relation.Attr{Name: "s", Type: relation.String, Width: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err := relation.NewSchema(
		relation.Attr{Name: "b", Type: relation.Int64},
		relation.Attr{Name: "g", Type: relation.Float64},
		relation.Attr{Name: "u", Type: relation.String, Width: 12},
	)
	if err != nil {
		t.Fatal(err)
	}
	cond := JoinCond{Terms: []JoinTerm{
		{Left: "a", Op: EQ, Right: "b"},
		{Left: "f", Op: LE, Right: "g"},
		{Left: "s", Op: NE, Right: "u"},
	}}
	bound, err := cond.Bind(left, right)
	if err != nil {
		t.Fatal(err)
	}
	lraw, err := relation.EncodeTuple(nil, left, relation.Tuple{
		relation.IntVal(42), relation.FloatVal(1.5), relation.StringVal("abc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rraw, err := relation.EncodeTuple(nil, right, relation.Tuple{
		relation.IntVal(42), relation.FloatVal(2.5), relation.StringVal("xyz"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := bound.EvalPair(lraw, rraw)
	if err != nil || !ok {
		t.Fatalf("EvalPair = %v, %v; want match", ok, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := bound.EvalPair(lraw, rraw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EvalPair allocates %v times per pair, want 0", allocs)
	}
}

// TestHashKeyCanonical checks the canonical 64-bit keys the hash kernel
// buckets on: equal values produce equal keys across storage widths, an
// int key is the value itself, and conditions without a hashable term
// report none.
func TestHashKeyCanonical(t *testing.T) {
	left, err := relation.NewSchema(
		relation.Attr{Name: "a", Type: relation.Int32},
		relation.Attr{Name: "s", Type: relation.String, Width: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err := relation.NewSchema(
		relation.Attr{Name: "b", Type: relation.Int64},
		relation.Attr{Name: "u", Type: relation.String, Width: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := Equi("a", "b").Bind(left, right)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := bound.HashKey()
	if !ok {
		t.Fatal("int equi-join has no hash key")
	}
	lraw, _ := relation.EncodeTuple(nil, left, relation.Tuple{relation.IntVal(-7), relation.StringVal("ab")})
	rraw, _ := relation.EncodeTuple(nil, right, relation.Tuple{relation.IntVal(-7), relation.StringVal("ab")})
	lk, rk := key.LeftKeyUint64(lraw), key.RightKeyUint64(rraw)
	if lk != rk || int64(lk) != -7 {
		t.Errorf("int32/int64 keys %x and %x, want both the value -7", lk, rk)
	}

	sb, err := JoinCond{Terms: []JoinTerm{{Left: "s", Op: EQ, Right: "u"}}}.Bind(left, right)
	if err != nil {
		t.Fatal(err)
	}
	skey, ok := sb.HashKey()
	if !ok {
		t.Fatal("string equi-join has no hash key")
	}
	if lk, rk := skey.LeftKeyUint64(lraw), skey.RightKeyUint64(rraw); lk != rk {
		t.Errorf("string keys differ across widths: %x vs %x", lk, rk)
	}
	other, _ := relation.EncodeTuple(nil, right, relation.Tuple{relation.IntVal(7), relation.StringVal("abc")})
	if key.LeftKeyUint64(lraw) == key.RightKeyUint64(other) || skey.LeftKeyUint64(lraw) == skey.RightKeyUint64(other) {
		t.Error("unequal values produced equal keys")
	}

	nb, err := JoinCond{Terms: []JoinTerm{{Left: "a", Op: LT, Right: "b"}}}.Bind(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nb.HashKey(); ok {
		t.Error("non-equi condition reported a hash key")
	}
}
