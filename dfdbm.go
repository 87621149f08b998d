// Package dfdbm is a working reproduction of Boral and DeWitt's 1979
// design study "Design Considerations for Data-flow Database Machines"
// (SIGMOD 1980): a relational algebra engine that executes query trees
// data-flow style at a selectable operand granularity — relation, page,
// or tuple — together with discrete-event simulators of the two machines
// the paper discusses (DIRECT, and the ring-based data-flow machine of
// its Section 4) and the experiment harness that regenerates every
// table and figure of the paper's evaluation.
//
// The central result reproduced here is the paper's: page-level
// granularity is the right scheduling unit for data-flow query
// processing — relation-level granularity forfeits pipelining and pays
// to move intermediate relations through mass storage, while
// tuple-level granularity floods the arbitration network with an order
// of magnitude more traffic for no additional concurrency.
//
// # Quick start
//
//	db := dfdbm.NewDB()
//	parts := dfdbm.MustNewRelation("parts", dfdbm.MustSchema(
//		dfdbm.Attr{Name: "pid", Type: dfdbm.Int32},
//		dfdbm.Attr{Name: "weight", Type: dfdbm.Int32},
//	), 4096)
//	_ = parts.Insert(dfdbm.Tuple{dfdbm.IntVal(1), dfdbm.IntVal(12)})
//	db.Put(parts)
//
//	q, _ := db.Parse(`restrict(parts, weight > 10)`)
//	res, _ := db.Execute(q, dfdbm.EngineOptions{Granularity: dfdbm.PageLevel})
//	fmt.Println(res.Relation.Cardinality(), res.Stats.ArbitrationBytes)
package dfdbm

import (
	"context"
	"io"
	"math/rand"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/wal"
	"dfdbm/internal/workload"
)

// DB is a database: a catalog of named relations plus the engines that
// execute queries against it.
type DB struct {
	cat *catalog.Catalog
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{cat: catalog.New()} }

// Put adds or replaces a relation in the database.
func (db *DB) Put(r *Relation) { db.cat.Put(r) }

// Get returns the named relation.
func (db *DB) Get(name string) (*Relation, error) { return db.cat.Get(name) }

// Drop removes the named relation, reporting whether it existed.
func (db *DB) Drop(name string) bool { return db.cat.Drop(name) }

// Names returns the sorted names of all relations.
func (db *DB) Names() []string { return db.cat.Names() }

// TotalBytes returns the database's storage footprint.
func (db *DB) TotalBytes() int { return db.cat.TotalBytes() }

// Catalog exposes the underlying catalog for the simulator APIs.
func (db *DB) Catalog() *Catalog { return db.cat }

// Parse parses a query in the textual language and binds it against
// the database:
//
//	project(join(restrict(orders, qty > 10), parts, pid = pid), [oid, pname])
//
// See the internal/query package documentation for the full grammar.
func (db *DB) Parse(src string) (*Query, error) {
	root, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return query.Bind(root, db.cat)
}

// Bind validates a programmatically built query tree against the
// database. Trees are built with the Scan/RestrictNode/JoinNode/...
// constructors re-exported by this package.
func (db *DB) Bind(root *QueryNode) (*Query, error) {
	return query.Bind(root, db.cat)
}

// Execute runs a bound query on the concurrent data-flow engine.
func (db *DB) Execute(q *Query, opts EngineOptions) (*Result, error) {
	return db.ExecuteContext(context.Background(), q, opts)
}

// ExecuteContext is Execute under a context: cancellation or timeout
// stops the run's workers and returns the context's error. A write
// (append, delete) goes the server's way with no log: the engine
// computes an append's source and wal.Write applies the record, so a
// stored relation, which takes writes only through the log, refuses it.
// Its Result holds the written relation and the elapsed time.
func (db *DB) ExecuteContext(ctx context.Context, q *Query, opts EngineOptions) (*Result, error) {
	eng := core.New(db.cat, opts)
	root := q.Root()
	if root.Kind != query.OpAppend && root.Kind != query.OpDelete {
		return eng.ExecuteContext(ctx, q)
	}
	start := time.Now()
	rel, err := wal.Write(nil, db.cat, root, func(src *query.Tree) (*relation.Relation, func(), error) {
		return eng.ExecuteScratch(ctx, src)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Stats: core.Stats{Elapsed: time.Since(start)}}, nil
}

// ExecuteSerial runs a bound query on the single-processor reference
// executor (the baseline of the paper's Section 2.1 discussion).
func (db *DB) ExecuteSerial(q *Query) (*Relation, error) {
	return query.ExecuteSerial(db.cat, q, 0)
}

// PaperBenchmark builds the paper's evaluation workload: the database
// of 15 relations (5.5 MB at scale 1.0) and its ten-query benchmark,
// bound and ready to execute.
func PaperBenchmark(cfg BenchmarkConfig) (*DB, []*Query, error) {
	cat, qs, err := workload.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	return &DB{cat: cat}, qs, nil
}

// RandomQuery generates a random bound query over a PaperBenchmark
// database: restricts, up to `joins` joins, and an occasional project,
// to a tree height of `depth`. Identical seeds yield identical trees.
// The generator backs the cross-engine equivalence fuzz tests.
func RandomQuery(seed int64, db *DB, joins, depth int) (*Query, error) {
	rng := rand.New(rand.NewSource(seed))
	return workload.RandomQuery(rng, db.cat, joins, depth)
}

// Explain renders a query tree as ASCII art in the style of the
// paper's Figure 2.1 (operators above their operands).
func Explain(q *Query) string { return query.RenderTree(q) }

// ImportCSV reads CSV (header row, then data rows matching the schema)
// into a new relation and adds it to the database.
func (db *DB) ImportCSV(name string, schema *Schema, r io.Reader, pageSize int) (*Relation, error) {
	rel, err := relation.ReadCSV(r, name, schema, pageSize)
	if err != nil {
		return nil, err
	}
	db.Put(rel)
	return rel, nil
}

// ExportCSV writes the named relation as CSV.
func (db *DB) ExportCSV(name string, w io.Writer) error {
	rel, err := db.Get(name)
	if err != nil {
		return err
	}
	return rel.WriteCSV(w)
}

// MustSchema builds a schema or panics; for statically known schemas.
func MustSchema(attrs ...Attr) *Schema { return relation.MustSchema(attrs...) }

// NewSchema builds a schema from attributes.
func NewSchema(attrs ...Attr) (*Schema, error) { return relation.NewSchema(attrs...) }

// NewRelation creates an empty relation with the given page size.
func NewRelation(name string, schema *Schema, pageSize int) (*Relation, error) {
	return relation.New(name, schema, pageSize)
}

// MustNewRelation is NewRelation but panics on error.
func MustNewRelation(name string, schema *Schema, pageSize int) *Relation {
	return relation.MustNew(name, schema, pageSize)
}
