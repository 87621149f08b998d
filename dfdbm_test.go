package dfdbm_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dfdbm"
)

// buildTinyDB assembles a small database through the public API only.
func buildTinyDB(t testing.TB) *dfdbm.DB {
	t.Helper()
	db := dfdbm.NewDB()

	parts := dfdbm.MustNewRelation("parts", dfdbm.MustSchema(
		dfdbm.Attr{Name: "pid", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "weight", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "pname", Type: dfdbm.String, Width: 12},
	), 1024)
	for i := 0; i < 40; i++ {
		if err := parts.Insert(dfdbm.Tuple{
			dfdbm.IntVal(int64(i)),
			dfdbm.IntVal(int64(i * 3 % 50)),
			dfdbm.StringVal("part"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Put(parts)

	orders := dfdbm.MustNewRelation("orders", dfdbm.MustSchema(
		dfdbm.Attr{Name: "oid", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "pid", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "qty", Type: dfdbm.Int32},
	), 1024)
	for i := 0; i < 100; i++ {
		if err := orders.Insert(dfdbm.Tuple{
			dfdbm.IntVal(int64(1000 + i)),
			dfdbm.IntVal(int64(i % 40)),
			dfdbm.IntVal(int64(i % 9)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Put(orders)
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	db := buildTinyDB(t)
	if len(db.Names()) != 2 || db.TotalBytes() == 0 {
		t.Fatalf("db setup wrong: %v", db.Names())
	}
	q, err := db.Parse(`project(join(restrict(orders, qty > 4), parts, pid = pid), [oid, pname])`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := db.Execute(q, dfdbm.EngineOptions{Granularity: dfdbm.PageLevel, PageSize: 1024})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, err := db.ExecuteSerial(q)
	if err != nil {
		t.Fatalf("ExecuteSerial: %v", err)
	}
	if !res.Relation.EqualMultiset(want) {
		t.Errorf("engine %d tuples, serial %d", res.Relation.Cardinality(), want.Cardinality())
	}
	if res.Stats.InstructionPackets == 0 {
		t.Error("no traffic metered")
	}
}

func TestPublicAPIBuilders(t *testing.T) {
	db := buildTinyDB(t)
	root := dfdbm.ProjectNode(
		dfdbm.JoinNode(
			dfdbm.RestrictNode(dfdbm.Scan("orders"),
				dfdbm.And(
					dfdbm.Compare{Attr: "qty", Op: dfdbm.GE, Const: dfdbm.IntVal(2)},
					dfdbm.Not(dfdbm.Compare{Attr: "qty", Op: dfdbm.EQ, Const: dfdbm.IntVal(5)}),
				)),
			dfdbm.Scan("parts"),
			dfdbm.Equi("pid", "pid"),
		),
		"oid", "weight",
	)
	q, err := db.Bind(root)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	res, err := db.Execute(q, dfdbm.EngineOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, _ := db.ExecuteSerial(q)
	if !res.Relation.EqualMultiset(want) {
		t.Error("builder query wrong")
	}
	fp := dfdbm.Analyze(root)
	if strings.Join(fp.Reads, ",") != "orders,parts" || len(fp.Writes) != 0 {
		t.Errorf("footprint = %+v", fp)
	}
}

func TestPublicAPIGranularities(t *testing.T) {
	db := buildTinyDB(t)
	q, err := db.Parse(`join(restrict(orders, qty > 3), restrict(parts, weight < 30), pid = pid)`)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.ExecuteSerial(q)
	for _, g := range []dfdbm.Granularity{dfdbm.RelationLevel, dfdbm.PageLevel, dfdbm.TupleLevel} {
		res, err := db.Execute(q, dfdbm.EngineOptions{Granularity: g, PageSize: 1024})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !res.Relation.EqualMultiset(want) {
			t.Errorf("%v granularity wrong", g)
		}
	}
}

func TestPublicAPIPaperBenchmark(t *testing.T) {
	db, qs, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: 2, Scale: 0.02, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 10 || len(db.Names()) != 15 {
		t.Fatalf("benchmark shape wrong: %d queries, %d relations", len(qs), len(db.Names()))
	}
	res, err := db.Execute(qs[2], dfdbm.EngineOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.ExecuteSerial(qs[2])
	if !res.Relation.EqualMultiset(want) {
		t.Error("benchmark query 3 wrong")
	}
}

func TestPublicAPIDirectSimulator(t *testing.T) {
	db, qs, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: 2, Scale: 0.05, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := dfdbm.ProfileQueries(db, qs, 2048)
	if err != nil {
		t.Fatal(err)
	}
	hw := dfdbm.DefaultHW()
	hw.PageSize = 2048
	rep, err := dfdbm.SimulateDIRECT(dfdbm.DirectConfig{Processors: 8, HW: hw}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 || rep.ProcCacheMbps() <= 0 {
		t.Errorf("report empty: %+v", rep)
	}
	tp := dfdbm.TrafficExample(1000, 1000, 1000, 0)
	if tp.Ratio() != 10 {
		t.Errorf("Section 3.3 ratio = %g", tp.Ratio())
	}
}

func TestPublicAPIRingMachine(t *testing.T) {
	db, qs, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: 2, Scale: 0.05, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	hw := dfdbm.DefaultHW()
	hw.PageSize = 2048
	m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(qs[2]); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.ExecuteSerial(qs[2])
	if !res.PerQuery[0].Relation.EqualMultiset(want) {
		t.Error("ring machine wrong through public API")
	}
}

func TestPublicAPIRingNetworks(t *testing.T) {
	res, err := dfdbm.SimulateRing(dfdbm.RingConfig{
		Kind: dfdbm.DLCN, Nodes: 8, Messages: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 200 || res.MeanDelay <= 0 {
		t.Errorf("ring result: %+v", res)
	}
}

func TestPublicAPIFigures(t *testing.T) {
	figs := dfdbm.Figures()
	if len(figs) != 11 {
		t.Fatalf("got %d figures", len(figs))
	}
	out, err := figs[1].Render(dfdbm.FigureParams{Scale: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tuple-level") {
		t.Errorf("table33 output: %s", out)
	}
}

func TestPublicAPIUpdates(t *testing.T) {
	db := buildTinyDB(t)
	archive := dfdbm.MustNewRelation("archive", dfdbm.MustSchema(
		dfdbm.Attr{Name: "oid", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "pid", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "qty", Type: dfdbm.Int32},
	), 1024)
	db.Put(archive)

	app, err := db.Parse(`append(archive, restrict(orders, qty = 0))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(app, dfdbm.EngineOptions{PageSize: 1024}); err != nil {
		t.Fatal(err)
	}
	if archive.Cardinality() == 0 {
		t.Error("append moved nothing")
	}
	del, err := db.Parse(`delete(orders, qty = 0)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(del, dfdbm.EngineOptions{}); err != nil {
		t.Fatal(err)
	}
	orders, _ := db.Get("orders")
	left := 0
	_ = orders.Each(func(tup dfdbm.Tuple) bool {
		if tup[2].Int == 0 {
			left++
		}
		return true
	})
	if left != 0 {
		t.Errorf("%d qty=0 rows survived delete", left)
	}
}

// TestPublicAPIPersistence: a database saved as a data directory and
// opened again holds every relation page for page, byte-identical, and
// the ten paper queries' serial answers are the same.
func TestPublicAPIPersistence(t *testing.T) {
	db, qs, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{Seed: 2, Scale: 0.05, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "bench")
	if err := db.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := dfdbm.OpenDB(dir)
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	if got, want := loaded.Names(), db.Names(); !slices.Equal(got, want) {
		t.Fatalf("loaded relations %v, want %v", got, want)
	}
	for _, name := range db.Names() {
		want, _ := db.Get(name)
		got, _ := loaded.Get(name)
		if got.Stored() {
			t.Errorf("%s: loaded relation is not resident", name)
		}
		if got.PageSize() != want.PageSize() || !slices.EqualFunc(pageImages(t, got), pageImages(t, want), bytes.Equal) {
			t.Errorf("%s: pages differ after Save and OpenDB", name)
		}
	}
	for i, q := range qs {
		lq, err := loaded.Parse(q.String())
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.ExecuteSerial(lq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.ExecuteSerial(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(pageImages(t, got), pageImages(t, want), bytes.Equal) {
			t.Errorf("query %d: the loaded database answers differently", i+1)
		}
	}
}

// pageImages returns the wire image of each of r's pages.
func pageImages(t *testing.T, r *dfdbm.Relation) [][]byte {
	t.Helper()
	var out [][]byte
	if err := r.EachPage(func(pg *dfdbm.Page) error {
		out = append(out, pg.Marshal())
		pg.Release()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPublicAPICSV(t *testing.T) {
	db := buildTinyDB(t)
	var buf strings.Builder
	if err := db.ExportCSV("parts", &buf); err != nil {
		t.Fatalf("ExportCSV: %v", err)
	}
	schema := dfdbm.MustSchema(
		dfdbm.Attr{Name: "pid", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "weight", Type: dfdbm.Int32},
		dfdbm.Attr{Name: "pname", Type: dfdbm.String, Width: 12},
	)
	re, err := db.ImportCSV("parts2", schema, strings.NewReader(buf.String()), 1024)
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	orig, _ := db.Get("parts")
	if !re.EqualMultiset(orig) {
		t.Error("CSV round trip through the public API changed contents")
	}
	if err := db.ExportCSV("missing", &buf); err == nil {
		t.Error("ExportCSV of missing relation succeeded")
	}
}
