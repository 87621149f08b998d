package relalg

import (
	"bytes"
	"math/rand"
	"testing"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

func TestKernelSelection(t *testing.T) {
	intL := intSchema(t, "a", "b")
	intR := intSchema(t, "c", "d")
	strSchema := func(names ...string) *relation.Schema {
		attrs := make([]relation.Attr, len(names))
		for i, n := range names {
			attrs[i] = relation.Attr{Name: n, Type: relation.String, Width: 8}
		}
		s, err := relation.NewSchema(attrs...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fltSchema := func(names ...string) *relation.Schema {
		attrs := make([]relation.Attr, len(names))
		for i, n := range names {
			attrs[i] = relation.Attr{Name: n, Type: relation.Float64}
		}
		s, err := relation.NewSchema(attrs...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name        string
		left, right *relation.Schema
		cond        pred.JoinCond
		want        Kernel
	}{
		{"int-equi", intL, intR, pred.Equi("a", "c"), KernelHash},
		{"int-non-equi", intL, intR,
			pred.JoinCond{Terms: []pred.JoinTerm{{Left: "a", Op: pred.LT, Right: "c"}}},
			KernelNestedLoops},
		{"string-equi", strSchema("s", "u"), strSchema("v", "w"), pred.Equi("s", "v"), KernelHash},
		{"float-equi", fltSchema("x"), fltSchema("y"), pred.Equi("x", "y"), KernelNestedLoops},
		{"equi-plus-residual", intL, intR,
			pred.JoinCond{Terms: []pred.JoinTerm{
				{Left: "a", Op: pred.EQ, Right: "c"},
				{Left: "b", Op: pred.LT, Right: "d"},
			}},
			KernelHash},
		{"residual-before-equi", intL, intR,
			pred.JoinCond{Terms: []pred.JoinTerm{
				{Left: "b", Op: pred.LT, Right: "d"},
				{Left: "a", Op: pred.EQ, Right: "c"},
			}},
			KernelHash},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bound, err := tc.cond.Bind(tc.left, tc.right)
			if err != nil {
				t.Fatal(err)
			}
			if got := NewJoinState(bound, nil).Kernel(); got != tc.want {
				t.Errorf("JoinState kernel = %v, want %v", got, tc.want)
			}
		})
	}
}

// rawTuples flattens a relation's pages into the exact emission order.
func rawTuples(r *relation.Relation) [][]byte {
	var out [][]byte
	r.EachRaw(func(raw []byte) bool {
		out = append(out, append([]byte(nil), raw...))
		return true
	})
	return out
}

func identicalRelations(t *testing.T, label string, want, got *relation.Relation) {
	t.Helper()
	ws, gs := rawTuples(want), rawTuples(got)
	if len(ws) != len(gs) {
		t.Fatalf("%s: %d tuples, want %d", label, len(gs), len(ws))
	}
	for i := range ws {
		if !bytes.Equal(ws[i], gs[i]) {
			t.Fatalf("%s: tuple %d differs: %x vs %x", label, i, gs[i], ws[i])
		}
	}
}

// TestHashJoinMatchesNestedLoops is the property test of the kernel
// swap: on randomized workloads (duplicate keys, several seeds, result
// order included) the hash kernel is byte-identical to nested loops.
func TestHashJoinMatchesNestedLoops(t *testing.T) {
	ls := intSchema(t, "a", "b")
	rs := intSchema(t, "c", "d")
	cond := pred.Equi("a", "c")
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		no, ni := 1+rng.Intn(300), 1+rng.Intn(300)
		keys := int64(1 + rng.Intn(40)) // small key space forces duplicates
		var lrows, rrows [][]int64
		for i := 0; i < no; i++ {
			lrows = append(lrows, []int64{rng.Int63n(keys), int64(i)})
		}
		for i := 0; i < ni; i++ {
			rrows = append(rrows, []int64{rng.Int63n(keys), int64(-i)})
		}
		outer := buildRel(t, "L", ls, lrows)
		inner := buildRel(t, "R", rs, rrows)
		want, err := NestedLoopsJoin(outer, inner, cond, "out")
		if err != nil {
			t.Fatal(err)
		}
		got, err := HashJoin(outer, inner, cond, "out")
		if err != nil {
			t.Fatal(err)
		}
		identicalRelations(t, "seed", want, got)
	}
}

// TestJoinStateMatchesNested drives the page-pair form (as the engines
// do) for equi and non-equi conditions and checks the emissions match
// the plain nested kernel exactly.
func TestJoinStateMatchesNested(t *testing.T) {
	ls := intSchema(t, "a", "b")
	rs := intSchema(t, "c", "d")
	conds := map[string]pred.JoinCond{
		"equi":     pred.Equi("a", "c"),
		"non-equi": {Terms: []pred.JoinTerm{{Left: "a", Op: pred.LT, Right: "c"}}},
		"residual": {Terms: []pred.JoinTerm{
			{Left: "a", Op: pred.EQ, Right: "c"},
			{Left: "b", Op: pred.NE, Right: "d"},
		}},
	}
	rng := rand.New(rand.NewSource(7))
	var lrows, rrows [][]int64
	for i := 0; i < 200; i++ {
		lrows = append(lrows, []int64{rng.Int63n(20), rng.Int63n(5)})
		rrows = append(rrows, []int64{rng.Int63n(20), rng.Int63n(5)})
	}
	outer := buildRel(t, "L", ls, lrows)
	inner := buildRel(t, "R", rs, rrows)
	for name, cond := range conds {
		t.Run(name, func(t *testing.T) {
			bound, err := cond.Bind(ls, rs)
			if err != nil {
				t.Fatal(err)
			}
			var want, got [][]byte
			for _, op := range outer.Pages() {
				for _, ip := range inner.Pages() {
					if _, err := JoinPages(op, ip, bound, func(raw []byte) error {
						want = append(want, append([]byte(nil), raw...))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			var ks KernelStats
			st := NewJoinState(bound, &ks)
			st.MaxTables = 2 // force table eviction and rebuild on the way
			for _, op := range outer.Pages() {
				for _, ip := range inner.Pages() {
					if _, err := st.JoinPages(op, ip, func(raw []byte) error {
						got = append(got, append([]byte(nil), raw...))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(want) != len(got) {
				t.Fatalf("%d emissions, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("emission %d differs", i)
				}
			}
			k := ks.Load()
			if name == "non-equi" && k.NestedPairs == 0 {
				t.Error("non-equi join recorded no nested pairs")
			}
			if name != "non-equi" && k.HashProbes == 0 {
				t.Error("equi join recorded no hash probes")
			}
		})
	}
}

// discardOut is an Out that keeps nothing: its Room is one scratch page.
type discardOut struct{ room []byte }

func (o *discardOut) Write([]byte) error { return nil }
func (o *discardOut) Room() []byte       { return o.room }
func (o *discardOut) Commit(int) error   { return nil }

// TestJoinStateNestedPairAllocatesNothing: a JoinState's nested kernel
// keeps its result tuple scratch between page pairs, so a non-equi pair
// a worker or IP joins costs no allocation, in either form.
func TestJoinStateNestedPairAllocatesNothing(t *testing.T) {
	ls := intSchema(t, "a", "b")
	rs := intSchema(t, "c", "d")
	var rows [][]int64
	for i := 0; i < 20; i++ {
		rows = append(rows, []int64{int64(i), int64(i % 3)})
	}
	op := buildRel(t, "L", ls, rows).Pages()[0]
	ip := buildRel(t, "R", rs, rows).Pages()[0]
	bound, err := pred.JoinCond{Terms: []pred.JoinTerm{{Left: "a", Op: pred.LT, Right: "c"}}}.Bind(ls, rs)
	if err != nil {
		t.Fatal(err)
	}
	st := NewJoinState(bound, nil)
	if st.Kernel() != KernelNestedLoops {
		t.Fatalf("kernel %s, want nested-loops", st.Kernel())
	}
	out := &discardOut{room: make([]byte, 4096)}
	emit := func([]byte) error { return nil }
	for name, pair := range map[string]func() (int, error){
		"JoinInto":  func() (int, error) { return st.JoinInto(op, ip, out) },
		"JoinPages": func() (int, error) { return st.JoinPages(op, ip, emit) },
	} {
		if n, err := pair(); err != nil || n == 0 {
			t.Fatalf("%s: %d results, %v", name, n, err)
		}
		if allocs := testing.AllocsPerRun(50, func() { pair() }); allocs != 0 {
			t.Errorf("%s: a nested page pair allocates %v times, want 0", name, allocs)
		}
	}
}

// TestHashJoinCrossWidthKeys joins an Int32 key column against an
// Int64 one: the canonical key encoding must make them hash-equal.
func TestHashJoinCrossWidthKeys(t *testing.T) {
	ls, err := relation.NewSchema(
		relation.Attr{Name: "a", Type: relation.Int32},
		relation.Attr{Name: "b", Type: relation.Int32},
	)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := relation.NewSchema(
		relation.Attr{Name: "c", Type: relation.Int64},
		relation.Attr{Name: "d", Type: relation.Int64},
	)
	if err != nil {
		t.Fatal(err)
	}
	outer := buildRel(t, "L", ls, [][]int64{{-3, 1}, {0, 2}, {7, 3}, {2147483647, 4}})
	inner := buildRel(t, "R", rs, [][]int64{{7, 10}, {-3, 20}, {2147483647, 30}, {5, 40}})
	cond := pred.Equi("a", "c")
	bound, err := cond.Bind(ls, rs)
	if err != nil {
		t.Fatal(err)
	}
	if NewJoinState(bound, nil).Kernel() != KernelHash {
		t.Fatal("cross-width int equi-join did not select the hash kernel")
	}
	want, err := NestedLoopsJoin(outer, inner, cond, "out")
	if err != nil {
		t.Fatal(err)
	}
	got, err := HashJoin(outer, inner, cond, "out")
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() != 3 {
		t.Fatalf("reference join found %d matches, want 3", want.Cardinality())
	}
	identicalRelations(t, "cross-width", want, got)
}

// TestDedupAddNoAllocsOnDuplicate is the satellite regression test:
// re-adding a tuple the set has seen must not allocate.
func TestDedupAddNoAllocsOnDuplicate(t *testing.T) {
	d := NewDedup()
	raw := []byte("hello, page-level world!")
	d.Add(raw)
	allocs := testing.AllocsPerRun(100, func() {
		if d.Add(raw) {
			t.Fatal("duplicate reported as new")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate Dedup.Add allocates %v times per call, want 0", allocs)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

// TestDedupCollisions exercises the hash-then-verify chain: distinct
// keys stay distinct even when forced into one bucket.
func TestDedupCollisions(t *testing.T) {
	d := NewDedup()
	seen := 0
	for i := 0; i < 1000; i++ {
		if d.Add([]byte{byte(i), byte(i >> 8)}) {
			seen++
		}
	}
	if seen != 1000 || d.Len() != 1000 {
		t.Fatalf("added %d distinct keys, Len=%d, want 1000", seen, d.Len())
	}
	for i := 0; i < 1000; i++ {
		if d.Add([]byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("key %d re-admitted", i)
		}
	}
}
