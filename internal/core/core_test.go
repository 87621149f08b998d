package core

import (
	"context"
	"strings"
	"testing"

	"dfdbm/internal/catalog"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/wal"
	"dfdbm/internal/workload"
)

// testDB builds a small instance of the paper database (1% scale,
// 1000-byte pages) plus the ten benchmark queries.
func testDB(t testing.TB, scale float64, pageSize int) (*catalog.Catalog, []*query.Tree) {
	t.Helper()
	cat, qs, err := workload.Build(workload.Config{Seed: 11, Scale: scale, PageSize: pageSize})
	if err != nil {
		t.Fatalf("workload.Build: %v", err)
	}
	return cat, qs
}

func allGranularities() []Granularity {
	return []Granularity{RelationLevel, PageLevel, TupleLevel}
}

// TestGranularityEquivalence is the central correctness property: all
// three granularities compute the same answer as the serial reference
// executor, for every benchmark query.
func TestGranularityEquivalence(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	for qi, q := range qs {
		want, err := query.ExecuteSerial(cat, q, 0)
		if err != nil {
			t.Fatalf("query %d serial: %v", qi+1, err)
		}
		for _, g := range allGranularities() {
			eng := New(cat, Options{Granularity: g, Workers: 4, PageSize: 1000})
			res, err := eng.Execute(q)
			if err != nil {
				t.Fatalf("query %d at %s: %v", qi+1, g, err)
			}
			if !res.Relation.EqualMultiset(want) {
				t.Errorf("query %d at %s granularity: %d tuples, serial got %d",
					qi+1, g, res.Relation.Cardinality(), want.Cardinality())
			}
			if res.Stats.TuplesOut != int64(want.Cardinality()) {
				t.Errorf("query %d at %s: TuplesOut = %d, want %d",
					qi+1, g, res.Stats.TuplesOut, want.Cardinality())
			}
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	q := qs[5] // 2 joins, 3 restricts
	want, err := query.ExecuteSerial(cat, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 32} {
		eng := New(cat, Options{Granularity: PageLevel, Workers: workers, PageSize: 1000})
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !res.Relation.EqualMultiset(want) {
			t.Errorf("%d workers: wrong result (%d tuples, want %d)",
				workers, res.Relation.Cardinality(), want.Cardinality())
		}
	}
}

func TestBareScanRoot(t *testing.T) {
	cat, _ := testDB(t, 0.01, 1000)
	for _, g := range allGranularities() {
		tr, err := query.Bind(query.MustParse("r15"), cat)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(cat, Options{Granularity: g, PageSize: 1000})
		res, err := eng.Execute(tr)
		if err != nil {
			t.Fatalf("scan at %s: %v", g, err)
		}
		want, _ := cat.Get("r15")
		if !res.Relation.EqualMultiset(want) {
			t.Errorf("scan at %s: %d tuples, want %d", g, res.Relation.Cardinality(), want.Cardinality())
		}
	}
}

func TestEmptyResultQuery(t *testing.T) {
	cat, _ := testDB(t, 0.01, 1000)
	tr, err := query.Bind(query.MustParse(`restrict(r1, val < 0)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range allGranularities() {
		eng := New(cat, Options{Granularity: g, PageSize: 1000})
		res, err := eng.Execute(tr)
		if err != nil {
			t.Fatalf("at %s: %v", g, err)
		}
		if res.Relation.Cardinality() != 0 {
			t.Errorf("at %s: %d tuples, want 0", g, res.Relation.Cardinality())
		}
	}
}

func TestJoinWithEmptySide(t *testing.T) {
	cat, _ := testDB(t, 0.01, 1000)
	tr, err := query.Bind(query.MustParse(
		`join(restrict(r1, val < 0), restrict(r2, val < 500), k1 = k1)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range allGranularities() {
		eng := New(cat, Options{Granularity: g, PageSize: 1000})
		res, err := eng.Execute(tr)
		if err != nil {
			t.Fatalf("at %s: %v", g, err)
		}
		if res.Relation.Cardinality() != 0 {
			t.Errorf("at %s: join with empty side gave %d tuples", g, res.Relation.Cardinality())
		}
	}
}

func TestProjectStrategiesAgree(t *testing.T) {
	cat, _ := testDB(t, 0.05, 1000)
	tr, err := query.Bind(query.MustParse(`project(r3, [k1, k2])`), cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.ExecuteSerial(cat, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []ProjectStrategy{ProjectSerialIC, ProjectPartitioned} {
		for _, g := range allGranularities() {
			eng := New(cat, Options{Granularity: g, Workers: 6, PageSize: 1000, Project: strat})
			res, err := eng.Execute(tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", strat, g, err)
			}
			if !res.Relation.EqualMultiset(want) {
				t.Errorf("%s/%s: %d tuples, want %d", strat, g,
					res.Relation.Cardinality(), want.Cardinality())
			}
		}
	}
}

// write applies a write root the way the server and DB do: the engine
// runs an append's source through ExecuteScratch, and wal.Write builds
// and applies the record, here with no log on a resident catalog.
func write(eng *Engine, cat *catalog.Catalog, tr *query.Tree) (*relation.Relation, error) {
	return wal.Write(nil, cat, tr.Root(), func(src *query.Tree) (*relation.Relation, func(), error) {
		return eng.ExecuteScratch(context.Background(), src)
	})
}

// TestAppendRoot: the engine refuses an append root, naming the write
// path, and leaves the destination alone; through that path the engine
// computes the source and the append lands.
func TestAppendRoot(t *testing.T) {
	cat, _ := testDB(t, 0.02, 1000)
	dst := relation.MustNew("sink_rel", workload.PaperSchema(), 1000)
	cat.Put(dst)
	tr, err := query.Bind(query.MustParse(`append(sink_rel, restrict(r14, val < 500))`), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cat, Options{Granularity: PageLevel, PageSize: 1000})
	if _, err := eng.Execute(tr); err == nil || !strings.Contains(err.Error(), "wal.Write") || dst.Cardinality() != 0 {
		t.Fatalf("engine on an append root: %v, %d tuples in the destination; want a refusal naming wal.Write", err, dst.Cardinality())
	}
	res, err := write(eng, cat, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res != dst {
		t.Errorf("append returned %q, not the destination", res.Name())
	}
	if dst.Cardinality() == 0 {
		t.Error("append inserted nothing")
	}
	// Appending again doubles the cardinality.
	before := dst.Cardinality()
	if _, err := write(eng, cat, tr); err != nil {
		t.Fatal(err)
	}
	if dst.Cardinality() != 2*before {
		t.Errorf("second append gave %d tuples, want %d", dst.Cardinality(), 2*before)
	}
}

func TestDeleteRoot(t *testing.T) {
	cat, _ := testDB(t, 0.02, 1000)
	r14, _ := cat.Get("r14")
	before := r14.Cardinality()
	tr, err := query.Bind(query.MustParse(`delete(r14, val < 500)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cat, Options{})
	if _, err := eng.Execute(tr); err == nil || !strings.Contains(err.Error(), "wal.Write") || r14.Cardinality() != before {
		t.Fatalf("engine on a delete root: %v, %d of %d tuples left; want a refusal naming wal.Write", err, r14.Cardinality(), before)
	}
	res, err := write(eng, cat, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cardinality() >= before {
		t.Errorf("delete removed nothing (%d -> %d)", before, res.Cardinality())
	}
	var bad int
	_ = res.Each(func(tup relation.Tuple) bool {
		if tup[5].Int < 500 {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Errorf("%d tuples matching the delete predicate survived", bad)
	}
}

// TestTrafficAccounting checks the Section 3.3 bandwidth claim on real
// measured traffic: for a join, tuple-level granularity pushes roughly
// an order of magnitude more bytes through the arbitration network than
// page-level granularity with 1000-byte pages.
func TestTrafficAccounting(t *testing.T) {
	cat, _ := testDB(t, 0.02, 1000)
	tr, err := query.Bind(query.MustParse(
		`join(restrict(r2, val < 300), restrict(r3, val < 300), k1 = k1)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g Granularity) Stats {
		eng := New(cat, Options{Granularity: g, Workers: 4, PageSize: 1000})
		res, err := eng.Execute(tr)
		if err != nil {
			t.Fatalf("at %s: %v", g, err)
		}
		return res.Stats
	}
	pageStats := run(PageLevel)
	tupleStats := run(TupleLevel)
	if pageStats.ArbitrationBytes <= 0 || tupleStats.ArbitrationBytes <= 0 {
		t.Fatal("no arbitration traffic metered")
	}
	ratio := float64(tupleStats.ArbitrationBytes) / float64(pageStats.ArbitrationBytes)
	// The paper's closed form gives 10x for 10-tuple pages; our pages
	// hold 9 tuples after the header, so expect roughly 7-12x.
	if ratio < 5 || ratio > 15 {
		t.Errorf("tuple/page arbitration ratio = %.2f, want ≈10 (tuple=%d page=%d)",
			ratio, tupleStats.ArbitrationBytes, pageStats.ArbitrationBytes)
	}
	if tupleStats.InstructionPackets <= pageStats.InstructionPackets {
		t.Error("tuple level sent fewer packets than page level")
	}
}

func TestStatsPopulated(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	eng := New(cat, Options{Granularity: PageLevel, PageSize: 1000})
	res, err := eng.Execute(qs[2])
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.InstructionPackets == 0 || s.OperandBytes == 0 || s.ArbitrationBytes == 0 {
		t.Errorf("arbitration stats empty: %+v", s)
	}
	if s.ArbitrationBytes != s.OperandBytes+32*s.InstructionPackets {
		t.Errorf("ArbitrationBytes inconsistent: %+v", s)
	}
	if s.ResultPackets == 0 || s.PagesMoved == 0 {
		t.Errorf("result stats empty: %+v", s)
	}
	if s.Elapsed <= 0 {
		t.Error("Elapsed not set")
	}
}

func TestOptionsDefaults(t *testing.T) {
	eng := New(catalog.New(), Options{})
	o := eng.Options()
	if o.Granularity != PageLevel || o.Workers != 4 || o.CellsPerWorker != 2 ||
		o.PageSize != DefaultPageSize || o.PacketOverhead != 32 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestGranularityString(t *testing.T) {
	if RelationLevel.String() != "relation" || PageLevel.String() != "page" ||
		TupleLevel.String() != "tuple" || Granularity(9).String() != "granularity(9)" {
		t.Error("Granularity.String wrong")
	}
	if ProjectSerialIC.String() != "serial-ic" || ProjectPartitioned.String() != "partitioned" {
		t.Error("ProjectStrategy.String wrong")
	}
}

func TestMissingRelation(t *testing.T) {
	cat := catalog.New()
	s := workload.PaperSchema()
	cat.Put(relation.MustNew("r", s, 1000))
	tr, err := query.Bind(query.MustParse("r"), cat)
	if err != nil {
		t.Fatal(err)
	}
	cat.Drop("r")
	eng := New(cat, Options{PageSize: 1000})
	if _, err := eng.Execute(tr); err == nil {
		t.Error("Execute with dropped relation succeeded")
	}
}

// TestRepeatedExecutionsDeterministicResult: the tuple order may differ
// between runs, but the multiset must not.
func TestRepeatedExecutionsDeterministicResult(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	eng := New(cat, Options{Granularity: PageLevel, Workers: 8, PageSize: 1000})
	first, err := eng.Execute(qs[7])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := eng.Execute(qs[7])
		if err != nil {
			t.Fatal(err)
		}
		if !again.Relation.EqualMultiset(first.Relation) {
			t.Fatalf("run %d differs from first run", i)
		}
	}
}

// TestCompressedPagesAreFull: at page granularity, the controller
// compresses partial result pages, so all but the last page of each
// stream must be full. We check the final result relation.
func TestCompressedPagesAreFull(t *testing.T) {
	cat, _ := testDB(t, 0.05, 1000)
	tr, err := query.Bind(query.MustParse(`restrict(r1, val < 500)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000})
	res, err := eng.Execute(tr)
	if err != nil {
		t.Fatal(err)
	}
	partial := 0
	for _, pg := range res.Relation.Pages() {
		if !pg.Full() {
			partial++
		}
	}
	if partial > 1 {
		t.Errorf("%d partial pages in result, want at most 1 (compression failed)", partial)
	}
}

// TestCellsPerWorkerBoundsArbitration: the arbitration channel capacity
// equals Workers × CellsPerWorker (the paper's memory cells); the
// engine stays correct at the minimum depth.
func TestCellsPerWorkerBoundsArbitration(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	want, err := query.ExecuteSerial(cat, qs[5], 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range []int{1, 2, 16} {
		eng := New(cat, Options{Granularity: PageLevel, Workers: 2, CellsPerWorker: cells, PageSize: 1000})
		res, err := eng.Execute(qs[5])
		if err != nil {
			t.Fatalf("cells=%d: %v", cells, err)
		}
		if !res.Relation.EqualMultiset(want) {
			t.Errorf("cells=%d: wrong result", cells)
		}
	}
}

// TestPacketOverheadAccounting: the overhead constant c scales the
// arbitration byte count exactly as Section 3.3's formula says.
func TestPacketOverheadAccounting(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	run := func(c int) Stats {
		eng := New(cat, Options{Granularity: PageLevel, PageSize: 1000, PacketOverhead: c})
		res, err := eng.Execute(qs[2])
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	lo := run(16)
	hi := run(128)
	if lo.InstructionPackets != hi.InstructionPackets {
		t.Fatalf("packet counts differ: %d vs %d", lo.InstructionPackets, hi.InstructionPackets)
	}
	if lo.OperandBytes != hi.OperandBytes {
		t.Fatalf("operand bytes differ: %d vs %d", lo.OperandBytes, hi.OperandBytes)
	}
	wantDelta := (128 - 16) * lo.InstructionPackets
	if hi.ArbitrationBytes-lo.ArbitrationBytes != wantDelta {
		t.Errorf("overhead delta = %d, want %d",
			hi.ArbitrationBytes-lo.ArbitrationBytes, wantDelta)
	}
}
