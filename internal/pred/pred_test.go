package pred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfdbm/internal/relation"
)

func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Attr{Name: "id", Type: relation.Int32},
		relation.Attr{Name: "qty", Type: relation.Int32},
		relation.Attr{Name: "price", Type: relation.Float64},
		relation.Attr{Name: "tag", Type: relation.String, Width: 8},
	)
}

func encode(t testing.TB, s *relation.Schema, tup relation.Tuple) []byte {
	t.Helper()
	raw, err := relation.EncodeTuple(nil, s, tup)
	if err != nil {
		t.Fatalf("EncodeTuple: %v", err)
	}
	return raw
}

func TestCompareOps(t *testing.T) {
	s := testSchema(t)
	raw := encode(t, s, relation.Tuple{
		relation.IntVal(10), relation.IntVal(3), relation.FloatVal(2.5), relation.StringVal("abc"),
	})
	cases := []struct {
		p    Pred
		want bool
	}{
		{Compare{"id", EQ, relation.IntVal(10)}, true},
		{Compare{"id", EQ, relation.IntVal(11)}, false},
		{Compare{"id", NE, relation.IntVal(11)}, true},
		{Compare{"id", LT, relation.IntVal(11)}, true},
		{Compare{"id", LE, relation.IntVal(10)}, true},
		{Compare{"id", GT, relation.IntVal(10)}, false},
		{Compare{"id", GE, relation.IntVal(10)}, true},
		{Compare{"price", GT, relation.FloatVal(2.0)}, true},
		{Compare{"price", LT, relation.FloatVal(2.0)}, false},
		{Compare{"tag", EQ, relation.StringVal("abc")}, true},
		{Compare{"tag", GE, relation.StringVal("abd")}, false},
	}
	for _, c := range cases {
		b, err := c.p.Bind(s)
		if err != nil {
			t.Fatalf("Bind(%s): %v", c.p, err)
		}
		got, err := b.Eval(raw)
		if err != nil {
			t.Fatalf("Eval(%s): %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCompareAttrs(t *testing.T) {
	s := testSchema(t)
	raw := encode(t, s, relation.Tuple{
		relation.IntVal(10), relation.IntVal(10), relation.FloatVal(0), relation.StringVal(""),
	})
	b, err := CompareAttrs{"id", EQ, "qty"}.Bind(s)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if ok, err := b.Eval(raw); err != nil || !ok {
		t.Errorf("id = qty gave %v, %v; want true", ok, err)
	}
	b2, err := CompareAttrs{"id", LT, "qty"}.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := b2.Eval(raw); ok {
		t.Error("id < qty gave true for equal values")
	}
}

func TestConnectives(t *testing.T) {
	s := testSchema(t)
	raw := encode(t, s, relation.Tuple{
		relation.IntVal(5), relation.IntVal(7), relation.FloatVal(1), relation.StringVal("t"),
	})
	idIs5 := Compare{"id", EQ, relation.IntVal(5)}
	qtyIs9 := Compare{"qty", EQ, relation.IntVal(9)}
	cases := []struct {
		p    Pred
		want bool
	}{
		{Conj(idIs5, qtyIs9), false},
		{Conj(idIs5, Compare{"qty", EQ, relation.IntVal(7)}), true},
		{Disj(idIs5, qtyIs9), true},
		{Disj(qtyIs9, qtyIs9), false},
		{Not{idIs5}, false},
		{Not{qtyIs9}, true},
		{TruePred, true},
		{FalsePred, false},
		{Conj(TruePred, Not{FalsePred}), true},
	}
	for _, c := range cases {
		b, err := c.p.Bind(s)
		if err != nil {
			t.Fatalf("Bind(%s): %v", c.p, err)
		}
		got, err := b.Eval(raw)
		if err != nil {
			t.Fatalf("Eval(%s): %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBindErrors(t *testing.T) {
	s := testSchema(t)
	cases := []Pred{
		Compare{"missing", EQ, relation.IntVal(1)},
		Compare{"id", EQ, relation.StringVal("wrong kind")},
		CompareAttrs{"missing", EQ, "id"},
		CompareAttrs{"id", EQ, "missing"},
		CompareAttrs{"id", EQ, "tag"},
		And{},
		Or{},
		Not{Compare{"missing", EQ, relation.IntVal(1)}},
	}
	for _, p := range cases {
		if _, err := p.Bind(s); err == nil {
			t.Errorf("Bind(%s) succeeded, want error", p)
		}
	}
}

func TestAttrsCollection(t *testing.T) {
	p := Conj(
		Compare{"a", EQ, relation.IntVal(1)},
		Disj(CompareAttrs{"b", LT, "c"}, Not{Compare{"d", NE, relation.IntVal(2)}}),
	)
	got := p.Attrs(nil)
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	if len(got) != 4 {
		t.Fatalf("Attrs = %v, want 4 names", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected attr %q", n)
		}
	}
}

func TestPredString(t *testing.T) {
	p := Conj(
		Compare{"id", GE, relation.IntVal(3)},
		Compare{"tag", EQ, relation.StringVal("x")},
	)
	if got := p.String(); got != `(id >= 3) and (tag = "x")` {
		t.Errorf("String = %q", got)
	}
	if got := (Not{TruePred}).String(); got != "not (true)" {
		t.Errorf("Not.String = %q", got)
	}
}

func TestParseOp(t *testing.T) {
	good := map[string]Op{
		"=": EQ, "==": EQ, "!=": NE, "<>": NE, "<": LT, "<=": LE, ">": GT, ">=": GE,
	}
	for s, want := range good {
		got, err := ParseOp(s)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseOp("~"); err == nil {
		t.Error("ParseOp(~) succeeded")
	}
}

func TestJoinCondBindAndEval(t *testing.T) {
	left := relation.MustSchema(
		relation.Attr{Name: "id", Type: relation.Int32},
		relation.Attr{Name: "x", Type: relation.Int32},
	)
	right := relation.MustSchema(
		relation.Attr{Name: "fk", Type: relation.Int32},
		relation.Attr{Name: "y", Type: relation.Int32},
	)
	cond := Equi("id", "fk")
	b, err := cond.Bind(left, right)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	lraw, _ := relation.EncodeTuple(nil, left, relation.Tuple{relation.IntVal(7), relation.IntVal(1)})
	r1, _ := relation.EncodeTuple(nil, right, relation.Tuple{relation.IntVal(7), relation.IntVal(2)})
	r2, _ := relation.EncodeTuple(nil, right, relation.Tuple{relation.IntVal(8), relation.IntVal(2)})
	if ok, err := b.EvalPair(lraw, r1); err != nil || !ok {
		t.Errorf("matching pair gave %v, %v", ok, err)
	}
	if ok, err := b.EvalPair(lraw, r2); err != nil || ok {
		t.Errorf("non-matching pair gave %v, %v", ok, err)
	}
	li, ri, ok := b.FirstEqui()
	if !ok || li != 0 || ri != 0 {
		t.Errorf("FirstEqui = %d, %d, %v", li, ri, ok)
	}
}

func TestJoinCondMultiTerm(t *testing.T) {
	left := relation.MustSchema(
		relation.Attr{Name: "a", Type: relation.Int32},
		relation.Attr{Name: "b", Type: relation.Int32},
	)
	right := relation.MustSchema(
		relation.Attr{Name: "c", Type: relation.Int32},
		relation.Attr{Name: "d", Type: relation.Int32},
	)
	cond := JoinCond{Terms: []JoinTerm{
		{Left: "a", Op: EQ, Right: "c"},
		{Left: "b", Op: LT, Right: "d"},
	}}
	b, err := cond.Bind(left, right)
	if err != nil {
		t.Fatal(err)
	}
	lraw, _ := relation.EncodeTuple(nil, left, relation.Tuple{relation.IntVal(1), relation.IntVal(5)})
	rYes, _ := relation.EncodeTuple(nil, right, relation.Tuple{relation.IntVal(1), relation.IntVal(9)})
	rNo, _ := relation.EncodeTuple(nil, right, relation.Tuple{relation.IntVal(1), relation.IntVal(5)})
	if ok, _ := b.EvalPair(lraw, rYes); !ok {
		t.Error("multi-term condition rejected matching pair")
	}
	if ok, _ := b.EvalPair(lraw, rNo); ok {
		t.Error("multi-term condition accepted non-matching pair")
	}
	if got := cond.String(); got != "a = c and b < d" {
		t.Errorf("JoinCond.String = %q", got)
	}
}

func TestJoinCondErrors(t *testing.T) {
	left := relation.MustSchema(relation.Attr{Name: "a", Type: relation.Int32})
	right := relation.MustSchema(relation.Attr{Name: "s", Type: relation.String, Width: 4})
	cases := []JoinCond{
		{},
		Equi("missing", "s"),
		Equi("a", "missing"),
		Equi("a", "s"), // incomparable kinds
	}
	for _, c := range cases {
		if _, err := c.Bind(left, right); err == nil {
			t.Errorf("Bind(%v) succeeded, want error", c)
		}
	}
	// FirstEqui with no EQ term.
	b, err := JoinCond{Terms: []JoinTerm{{Left: "a", Op: LT, Right: "n"}}}.Bind(
		left, relation.MustSchema(relation.Attr{Name: "n", Type: relation.Int32}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := b.FirstEqui(); ok {
		t.Error("FirstEqui reported an equi term on a pure-theta condition")
	}
}

// TestQuickPredicateMatchesReference checks bound predicate evaluation
// against a reference evaluator that decodes the whole tuple first.
func TestQuickPredicateMatchesReference(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, idCut int32, qtyCut int32) bool {
		rng.Seed(seed)
		tup := relation.Tuple{
			relation.IntVal(int64(int32(rng.Uint32() % 100))),
			relation.IntVal(int64(int32(rng.Uint32() % 100))),
			relation.FloatVal(rng.Float64() * 10),
			relation.StringVal("t"),
		}
		raw, err := relation.EncodeTuple(nil, s, tup)
		if err != nil {
			return false
		}
		p := Disj(
			Conj(
				Compare{"id", LT, relation.IntVal(int64(idCut % 100))},
				Compare{"qty", GE, relation.IntVal(int64(qtyCut % 100))},
			),
			Compare{"price", GT, relation.FloatVal(5)},
		)
		b, err := p.Bind(s)
		if err != nil {
			return false
		}
		got, err := b.Eval(raw)
		if err != nil {
			return false
		}
		want := (tup[0].Int < int64(idCut%100) && tup[1].Int >= int64(qtyCut%100)) || tup[2].Flt > 5
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeMorgan: not(a and b) ≡ (not a) or (not b) over random
// tuples — an algebraic identity the evaluator must respect.
func TestQuickDeMorgan(t *testing.T) {
	s := testSchema(t)
	f := func(seed int64, idCut int32, qtyCut int32) bool {
		rng := rand.New(rand.NewSource(seed))
		raw, err := relation.EncodeTuple(nil, s, relation.Tuple{
			relation.IntVal(int64(rng.Intn(50))),
			relation.IntVal(int64(rng.Intn(50))),
			relation.FloatVal(rng.Float64()),
			relation.StringVal("z"),
		})
		if err != nil {
			return false
		}
		a := Compare{Attr: "id", Op: LT, Const: relation.IntVal(int64(idCut % 50))}
		b := Compare{Attr: "qty", Op: GE, Const: relation.IntVal(int64(qtyCut % 50))}
		lhs, err := (Not{Conj(a, b)}).Bind(s)
		if err != nil {
			return false
		}
		rhs, err := Disj(Not{a}, Not{b}).Bind(s)
		if err != nil {
			return false
		}
		lv, err1 := lhs.Eval(raw)
		rv, err2 := rhs.Eval(raw)
		return err1 == nil && err2 == nil && lv == rv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
