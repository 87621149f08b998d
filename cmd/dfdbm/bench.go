package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbm"
	"dfdbm/internal/catalog"
	"dfdbm/internal/core"
	"dfdbm/internal/heap"
	"dfdbm/internal/obs"
	"dfdbm/internal/pred"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
	"dfdbm/internal/wal"
	"dfdbm/internal/wire"
)

// The machine-readable benchmark harness behind `dfdbm bench -json`.
// It measures the hot execution path — the page kernels, the heap file
// under the buffer pool, the functional engine, the wire encoder and
// the two simulators — and emits BENCH_machine.json so future changes
// can be diffed against these numbers. Every row is declared once, in
// benchSections: its name, the section that measures it, and the gate
// -compare holds it to.

// benchEntry is one measured benchmark in the JSON report.
type benchEntry struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the whole BENCH_machine.json document.
type benchReport struct {
	Harness    string       `json:"harness"`
	Scale      float64      `json:"scale"`
	Seed       int64        `json:"seed"`
	PageSize   int          `json:"page_size"`
	JoinTuples int          `json:"join_tuples"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// equiJoinSize is the tuples per side of the large equi-join workload.
const equiJoinSize = 10000

// benchGate is what -compare holds a row to. Every row fails when its
// throughput falls under 75% of the baseline's (ns/op above 4/3 of it);
// a gate adds tighter checks.
type benchGate struct {
	// ns fails a row on more than 25% more ns/op: the engine rows a change to the
	// hand-off path moves first, and the storage row a change to the
	// buffer pool's run path does.
	ns bool
	// allocs fails a row on more than 25% more allocs/op: the paths that
	// recycle page memory. Unlike time an allocation count repeats from run to
	// run, so a rise is a leak in the recycling, not noise.
	allocs bool
	// count names a counted metric that fails a row above the baseline's
	// times slack: "dispatches", physical packets through the arbitration
	// network, and "reads", physical reads of a heap file. A lone scan's
	// runs are a function of its length (and its reads of the pool's
	// size too), so any rise there is a change in the hand-off or the
	// storage path; in the mix a join's packet count depends on how much
	// of the other side was buffered when each page arrived, which moves
	// by a tenth or so from run to run.
	count string
	slack float64
}

// benchRow is one BENCH_machine.json row.
type benchRow struct {
	name string
	gate benchGate
}

// benchSection is one workload and the rows measured on it. setup
// builds the workload and returns one op per row, in row order; each is
// timed by benchBestRound over reps interleaved rounds.
type benchSection struct {
	title string
	reps  int
	setup func(env *benchEnv) ([]benchOp, error)
	rows  []benchRow
}

// benchSections is the table: every BENCH_machine.json row, in the
// order the report lists them.
var benchSections = []benchSection{
	{"large equi-join, nested loops vs hash", 1, benchEquiJoin, []benchRow{
		{"equijoin/nested-loops", benchGate{}},
		{"equijoin/hash", benchGate{allocs: true}},
	}},
	{"hash-join build and probe phases", 5, benchHashPhases, []benchRow{
		{"equijoin/hash-build", benchGate{}},
		{"equijoin/hash-probe", benchGate{}},
	}},
	{"page kernels, scalar vs batched", 5, benchKernels, []benchRow{
		{"kernel/restrict-scalar", benchGate{}},
		{"kernel/restrict-batch", benchGate{}},
		{"kernel/project-batch", benchGate{}},
	}},
	{"heap storage, cold vs warm scans, served appends and trims, run scans alone and together", 3, benchHeap, []benchRow{
		{"heap/scan-cold", benchGate{allocs: true}},
		{"heap/scan-warm", benchGate{}},
		{"heap/append", benchGate{allocs: true}},
		{"heap/delete-all", benchGate{allocs: true}},
		{"heap/scan-run", benchGate{ns: true, allocs: true, count: "reads", slack: 1}},
		{"heap/scan-concurrent/2", benchGate{}},
		{"heap/scan-concurrent/8", benchGate{}},
	}},
	{"checkpoint of the paper database after one logged append", 3, benchCheckpoint, []benchRow{
		{"wal/checkpoint", benchGate{allocs: true}},
	}},
	{"functional engine (paper mix, streamed fetch) and frame encoder", 3, benchCore, []benchRow{
		{"core/paper-mix", benchGate{ns: true, allocs: true, count: "dispatches", slack: 1.25}},
		{"core/fetch-restrict", benchGate{ns: true}},
		{"core/restrict-400", benchGate{count: "dispatches", slack: 1}},
		{"wire/encode-page", benchGate{}},
	}},
	{"machine hot path", 1, benchMachineHotPath, []benchRow{
		{"machine/hot-path/pooled", benchGate{}},
	}},
	{"ring-machine multi-query run", 1, benchMachineRun, []benchRow{
		{"machine/ring-run", benchGate{}},
	}},
	{"DIRECT benchmark run", 1, benchDirectRun, []benchRow{
		{"direct/run", benchGate{}},
	}},
}

// benchEnv is what the sections measure on.
type benchEnv struct {
	db       *dfdbm.DB
	queries  []*dfdbm.Query
	pageSize int
	// cleanups run, last first, once a section's rows are measured.
	cleanups []func()
}

func (e *benchEnv) later(f func()) { e.cleanups = append(e.cleanups, f) }

// benchOp is one row's measurement: run is the timed op, and metrics
// reports the row's metrics once timing is done. A counted metric comes
// from one more run of the op (see after and the counter deltas in
// benchHeap and benchMachineHotPath), so it is one op's count, not a
// total over every timing iteration.
type benchOp struct {
	run     func() error
	metrics func() (map[string]float64, error)
}

// fixed reports metrics the op does not change.
func fixed(m map[string]float64) func() (map[string]float64, error) {
	return func() (map[string]float64, error) { return m, nil }
}

// after runs op once more and then reports read: values each op leaves
// behind, so they are that op's.
func after(op func() error, read func() map[string]float64) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		if err := op(); err != nil {
			return nil, err
		}
		return read(), nil
	}
}

// benchBestRound runs each benchmark `reps` times, interleaved
// round-robin, and keeps each one's fastest round. Microbenchmarks in
// the microsecond range are dominated by scheduler and frequency noise
// on a shared CI runner, and the noise arrives in multi-second
// throttle windows: interleaving spreads one benchmark's rounds across
// the whole measurement span so a throttled window costs every
// benchmark one round instead of one benchmark all of its rounds, and
// the per-benchmark minimum converges on the noise floor — the stable
// quantity the regression gate should compare.
func benchBestRound(reps int, fns ...func(b *testing.B)) []testing.BenchmarkResult {
	best := make([]testing.BenchmarkResult, len(fns))
	bestNs := make([]float64, len(fns))
	for round := 0; round < reps; round++ {
		for i, fn := range fns {
			r := testing.Benchmark(fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if round == 0 || ns < bestNs[i] {
				best[i], bestNs[i] = r, ns
			}
		}
	}
	return best
}

// measure sets a section up, times its ops and returns its rows.
func (s benchSection) measure(env *benchEnv) ([]benchEntry, error) {
	defer func() {
		for i := len(env.cleanups) - 1; i >= 0; i-- {
			env.cleanups[i]()
		}
		env.cleanups = nil
	}()
	ops, err := s.setup(env)
	if err != nil {
		return nil, err
	}
	if len(ops) != len(s.rows) {
		return nil, fmt.Errorf("bench: %s measures %d rows, the table declares %d", s.title, len(ops), len(s.rows))
	}
	fns := make([]func(*testing.B), len(ops))
	for i, op := range ops {
		fns[i] = func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if err := op.run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	results := benchBestRound(s.reps, fns...)
	entries := make([]benchEntry, len(ops))
	for i, r := range results {
		m, err := ops[i].metrics()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", s.rows[i].name, err)
		}
		entries[i] = benchEntry{
			Name:        s.rows[i].name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Metrics:     m,
		}
	}
	return entries, nil
}

// buildEquiJoinWorkload builds the large synthetic equi-join inputs:
// n tuples per side, 64-bit keys in pseudo-random order, exactly one
// inner match per outer tuple, and the join condition, also bound.
func buildEquiJoinWorkload(n, pageSize int) (outer, inner *relation.Relation, cond pred.JoinCond, bound *pred.BoundJoin, err error) {
	outer, err = relation.New("bench_outer", relation.MustSchema(
		relation.Attr{Name: "ok", Type: relation.Int64},
		relation.Attr{Name: "ov", Type: relation.Int64},
	), pageSize)
	if err != nil {
		return nil, nil, cond, nil, err
	}
	inner, err = relation.New("bench_inner", relation.MustSchema(
		relation.Attr{Name: "ik", Type: relation.Int64},
		relation.Attr{Name: "iv", Type: relation.Int64},
	), pageSize)
	if err != nil {
		return nil, nil, cond, nil, err
	}
	// Two different full-cycle permutations of 0..n-1 so matching pairs
	// land on unrelated page positions.
	perm := func(i, a, b int) int64 { return int64((i*a + b) % n) }
	for i := 0; i < n; i++ {
		if err := outer.Insert(relation.Tuple{relation.IntVal(perm(i, 7, 3)), relation.IntVal(int64(i))}); err != nil {
			return nil, nil, cond, nil, err
		}
		if err := inner.Insert(relation.Tuple{relation.IntVal(perm(i, 11, 5)), relation.IntVal(int64(i))}); err != nil {
			return nil, nil, cond, nil, err
		}
	}
	cond = pred.Equi("ok", "ik")
	bound, err = cond.Bind(outer.Schema(), inner.Schema())
	return outer, inner, cond, bound, err
}

// benchEquiJoin times the nested-loops and hash kernels on the large
// workload. That the two produce the same relation is tier-1's to check
// (TestHashJoinMatchesNestedLoops), not the harness's.
func benchEquiJoin(env *benchEnv) ([]benchOp, error) {
	outer, inner, cond, bound, err := buildEquiJoinWorkload(equiJoinSize, env.pageSize)
	if err != nil {
		return nil, err
	}
	var out *relation.Relation
	nested := func() (err error) {
		out, err = relalg.NestedLoopsJoin(outer, inner, cond, "out")
		return err
	}
	hash := func() error {
		_, err := relalg.HashJoin(outer, inner, cond, "out")
		return err
	}
	// The hash row's counters come from one instrumented pass of the
	// kernel HashJoin runs, over the same page pairs.
	hashCounts := func() (map[string]float64, error) {
		var ks relalg.KernelStats
		st := relalg.NewJoinState(bound, &ks)
		st.MaxTables = inner.NumPages()
		tuples := 0
		sink := func([]byte) error { tuples++; return nil }
		for _, op := range outer.Pages() {
			for _, ip := range inner.Pages() {
				if _, err := st.JoinPages(op, ip, sink); err != nil {
					return nil, err
				}
			}
		}
		k := ks.Load()
		return map[string]float64{
			"hash_probes":     float64(k.HashProbes),
			"hash_builds":     float64(k.HashBuilds),
			"hash_table_hits": float64(k.TableHits),
			"tuples_out":      float64(tuples),
		}, nil
	}
	return []benchOp{
		{nested, after(nested, func() map[string]float64 {
			return map[string]float64{
				"tuple_pairs": float64(outer.Cardinality()) * float64(inner.Cardinality()),
				"tuples_out":  float64(out.Cardinality()),
			}
		})},
		{hash, hashCounts},
	}, nil
}

// benchHashPhases splits the equi-join hash kernel into its two phases:
// building the per-inner-page hash tables and probing with every table
// resident (the steady state of the machine's broadcast join, where one
// inner page's table serves a run of outer pages).
func benchHashPhases(env *benchEnv) ([]benchOp, error) {
	outer, inner, _, bound, err := buildEquiJoinWorkload(equiJoinSize, env.pageSize)
	if err != nil {
		return nil, err
	}
	innerPages := inner.Pages()

	st := relalg.NewJoinState(bound, nil)
	st.MaxTables = len(innerPages)
	// Probe gets its own state with every table resident, so the two
	// phases stay independent under interleaved measurement.
	pst := relalg.NewJoinState(bound, nil)
	pst.MaxTables = len(innerPages)
	for _, ip := range innerPages {
		pst.Build(ip)
	}
	sink := func([]byte) error { return nil }
	build := func() error {
		st.Reset() // drop the tables so every op builds anew
		for _, ip := range innerPages {
			st.Build(ip)
		}
		return nil
	}
	probe := func() error {
		for _, op := range outer.Pages() {
			for _, ip := range innerPages {
				if _, err := pst.JoinPages(op, ip, sink); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return []benchOp{
		{build, fixed(map[string]float64{
			"inner_pages":  float64(len(innerPages)),
			"inner_tuples": float64(inner.Cardinality()),
		})},
		{probe, fixed(map[string]float64{
			"outer_tuples": float64(outer.Cardinality()),
			"inner_pages":  float64(len(innerPages)),
		})},
	}, nil
}

// benchKernels measures the page kernels head to head on the paper
// database's r5: the scalar tuple-at-a-time restrict against the
// batched bitmap kernel, and the batched project. The batched
// kernels' results are verified byte-identical to the scalar kernels'
// by TestBatchKernelsMatchScalar; here they are only timed.
func benchKernels(env *benchEnv) ([]benchOp, error) {
	rel, err := env.db.Get("r5")
	if err != nil {
		return nil, err
	}
	p := pred.Compare{Attr: "k1", Op: pred.LT, Const: relation.IntVal(50)}
	bound, err := p.Bind(rel.Schema())
	if err != nil {
		return nil, err
	}
	pj, err := relalg.NewProjector(rel.Schema(), "k1", "val")
	if err != nil {
		return nil, err
	}
	pages := rel.Pages()
	sink := func([]byte) error { return nil }

	rs := relalg.NewRestrictState(bound)
	ps := relalg.NewProjectState(pj)
	d := relalg.NewDedup()
	scalar := func() error {
		for _, pg := range pages {
			if _, err := relalg.RestrictPage(pg, bound, sink); err != nil {
				return err
			}
		}
		return nil
	}
	batch := func() error {
		for _, pg := range pages {
			if _, err := rs.RestrictPage(pg, sink); err != nil {
				return err
			}
		}
		return nil
	}
	project := func() error {
		d.Reset()
		for _, pg := range pages {
			if _, err := ps.ProjectPage(pg, d, sink); err != nil {
				return err
			}
		}
		return nil
	}
	vec := 0.0
	if rs.Vectorized() {
		vec = 1
	}
	tuples := fixed(map[string]float64{"tuples": float64(rel.Cardinality())})
	tuplesVec := fixed(map[string]float64{"tuples": float64(rel.Cardinality()), "vectorized": vec})
	return []benchOp{{scalar, tuples}, {batch, tuplesVec}, {project, tuples}}, nil
}

// benchHeap measures the paged-storage path on the paper database's
// r5: a full scan with the buffer pool far below the relation (every
// page faults and a victim evicts — the disk-bound cold case; the pool
// is too small for runs longer than a page), the same scan with the
// pool above the relation (steady-state cache hits), served appends
// installing their records' post-image pages through the pool under
// eviction and write-back pressure, served trims (a delete of every
// tuple) of a relation just as deep behind as few frames, and the run
// path: r5's pages
// repeated up to 400, whatever the scale, scanned through a 64-frame
// pool — by one scanner (reads = physical reads per scan) and by 2 and
// 8 scanners at once, each over a relation of its own, all sharing the
// pool.
func benchHeap(env *benchEnv) ([]benchOp, error) {
	src, err := env.db.Get("r5")
	if err != nil {
		return nil, err
	}
	n := src.NumPages()
	root, err := os.MkdirTemp("", "dfdbm-bench-heap-")
	if err != nil {
		return nil, err
	}
	env.later(func() { os.RemoveAll(root) })
	// store opens a heap store of frames frames, metered by a registry of
	// its own, and adopts rels into it.
	store := func(frames int, rels ...*relation.Relation) (*obs.Registry, error) {
		dir, err := os.MkdirTemp(root, "")
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry(time.Second)
		st, err := heap.OpenStore(dir, frames, obs.New(nil, reg))
		if err != nil {
			return nil, err
		}
		env.later(func() { st.Close() })
		for _, rel := range rels {
			if err := st.Adopt(rel); err != nil {
				return nil, err
			}
		}
		return reg, nil
	}
	coldFrames := max(n/8, 2)
	cold := src.Clone("bench_heap_cold")
	coldReg, err := store(coldFrames, cold)
	if err != nil {
		return nil, err
	}
	warm := src.Clone("bench_heap_warm")
	warmReg, err := store(n+8, warm)
	if err != nil {
		return nil, err
	}
	app := src.Clone("bench_heap_app")
	appReg, err := store(coldFrames, app)
	if err != nil {
		return nil, err
	}
	trim := src.Clone("bench_heap_trim")
	trimReg, err := store(coldFrames, trim)
	if err != nil {
		return nil, err
	}
	const runPages, runFrames, maxScanners = 400, 64, 8
	r400 := relation.MustNew("bench_heap_run", src.Schema(), src.PageSize())
	for i := 0; i < runPages; i++ {
		if err := r400.AppendPage(src.Page(i % n).Clone()); err != nil {
			return nil, err
		}
	}
	runs := make([]*relation.Relation, maxScanners)
	for i := range runs {
		runs[i] = r400.Clone(fmt.Sprintf("bench_heap_run%d", i))
	}
	runReg, err := store(runFrames, runs...)
	if err != nil {
		return nil, err
	}

	// scan reads every page and releases it, as the engine's workers do:
	// a scan that kept its pages would measure the collector fallback, a
	// fresh page per miss.
	scan := func(rel *relation.Relation) func() error {
		return func() error {
			tuples := 0
			return rel.EachPage(func(pg *relation.Page) error {
				tuples += pg.TupleCount()
				pg.Release()
				return nil
			})
		}
	}
	scanCold, scanWarm := scan(cold), scan(warm)
	if err := scanWarm(); err != nil { // warm the pool before measuring
		return nil, err
	}
	scanRuns := make([]func() error, maxScanners)
	for i, rel := range runs {
		scanRuns[i] = scan(rel)
	}
	// together is one op of heap/scan-concurrent: k scanners, one
	// relation each, started together and all waited for.
	together := func(k int) func() error {
		errs := make([]error, k)
		return func() error {
			var wg sync.WaitGroup
			for j := 0; j < k; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[j] = scanRuns[j]()
				}()
			}
			wg.Wait()
			return errors.Join(errs...)
		}
	}
	// An append op is a served append of 256 tuples without the log
	// write: the record's post-images built, then installed by Apply.
	const appendBatch = 256
	batch := relation.MustNew("bench_heap_batch", src.Schema(), src.PageSize())
	for j := 0; j < appendBatch; j++ {
		if err := batch.InsertRaw(src.Page(0).RawTuple(0)); err != nil {
			return nil, err
		}
	}
	writeCat := catalog.New()
	writeCat.Put(app)
	writeCat.Put(trim)
	apply := func(rec *wal.Record, err error) error {
		if err == nil {
			_, err = rec.Apply(writeCat)
		}
		return err
	}
	// The relation is cut back to its seed pages after each append,
	// outside the log, so every op appends to a file of the same size.
	appendOp := func() error {
		if err := apply(wal.AppendRecord(app, batch)); err != nil {
			return err
		}
		return app.Truncate(n)
	}
	// A trim op is ingest's trim one append deep, unlogged: the batch
	// appended as above, then a delete of every tuple.
	all := pred.Compare{Attr: "val", Op: pred.GE, Const: relation.IntVal(0)}
	trimOp := func() error {
		if err := apply(wal.AppendRecord(trim, batch)); err != nil {
			return err
		}
		return apply(wal.DeleteRecord(trim, all))
	}

	// pool runs op once more and adds to m how far each named counter of
	// reg's buffer pool moved over it; "hit_rate" is hits/(hits+misses).
	pool := func(reg *obs.Registry, op func() error, m map[string]float64, names ...string) func() (map[string]float64, error) {
		read := func() map[string]float64 {
			c := map[string]float64{}
			for _, n := range []string{"hits", "misses", "evictions", "writebacks", "reads"} {
				c[n] = float64(reg.Counter("bufpool." + n))
			}
			return c
		}
		return func() (map[string]float64, error) {
			c0 := read()
			if err := op(); err != nil {
				return nil, err
			}
			c := read()
			for k := range c {
				c[k] -= c0[k]
			}
			c["hit_rate"] = c["hits"] / (c["hits"] + c["misses"])
			for _, n := range names {
				m[n] = c[n]
			}
			return m, nil
		}
	}
	return []benchOp{
		{scanCold, pool(coldReg, scanCold, map[string]float64{"pages": float64(n), "frames": float64(coldFrames)}, "evictions", "hit_rate")},
		{scanWarm, pool(warmReg, scanWarm, map[string]float64{"pages": float64(n), "frames": float64(n + 8)}, "hit_rate")},
		{appendOp, pool(appReg, appendOp, map[string]float64{"tuples_per_op": appendBatch, "frames": float64(coldFrames)}, "writebacks")},
		{trimOp, pool(trimReg, trimOp, map[string]float64{"tuples_per_op": appendBatch, "frames": float64(coldFrames)}, "writebacks")},
		{scanRuns[0], pool(runReg, scanRuns[0], map[string]float64{"pages": runPages, "frames": runFrames}, "reads")},
		{together(2), fixed(map[string]float64{"pages": 2 * runPages, "frames": runFrames})},
		{together(maxScanners), fixed(map[string]float64{"pages": maxScanners * runPages, "frames": runFrames})},
	}, nil
}

// benchCheckpoint times the checkpoint `dfdbm serve` takes every 4 MiB
// of log on ingest: the paper database and an empty stage relation in a
// data directory, one logged 256-tuple append to stage (so the
// checkpoint is not skipped as clean), then the checkpoint: stage's new
// pages written back, every file made durable, the manifest committed.
// Stage is cut back to no pages after each op, outside the log, so
// every op checkpoints the same files.
func benchCheckpoint(env *benchEnv) ([]benchOp, error) {
	dir, err := os.MkdirTemp("", "dfdbm-bench-checkpoint-")
	if err != nil {
		return nil, err
	}
	env.later(func() { os.RemoveAll(dir) })
	l, _, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	env.later(func() { l.Close() })
	cat := catalog.New()
	for _, name := range env.db.Catalog().Names() {
		rel, err := env.db.Get(name)
		if err != nil {
			return nil, err
		}
		cat.Put(rel.Clone(name))
	}
	src, err := env.db.Get("r5")
	if err != nil {
		return nil, err
	}
	stage := relation.MustNew("stage", src.Schema(), src.PageSize())
	cat.Put(stage)
	if err := l.Checkpoint(cat); err != nil {
		return nil, err
	}
	const appendBatch = 256
	batch := relation.MustNew("bench_checkpoint_batch", src.Schema(), src.PageSize())
	for j := 0; j < appendBatch; j++ {
		if err := batch.InsertRaw(src.Page(0).RawTuple(0)); err != nil {
			return nil, err
		}
	}
	op := func() error {
		rec, err := wal.AppendRecord(stage, batch)
		if err != nil {
			return err
		}
		if _, err := l.Append(rec); err != nil {
			return err
		}
		if _, err := rec.Apply(cat); err != nil {
			return err
		}
		if err := l.Checkpoint(cat); err != nil {
			return err
		}
		return stage.Truncate(0)
	}
	return []benchOp{
		{op, fixed(map[string]float64{"relations": float64(len(cat.Names())), "tuples_per_op": appendBatch})},
	}, nil
}

// benchCore measures the functional engine as the server drives it —
// one shared engine at page granularity with four workers and core's
// default intermediate page, not the database's base page — and the
// wire encoder behind it: the paper's ten-query mix and a whole-relation
// restrict, each streamed through ExecuteStream with every page handed
// back to the free list (the controller event queue and the root's page
// stream, with no socket), the
// same restrict over exactly 400 pages whatever the scale (the scan
// length the run path is sized for), and the head of one serving-size
// result page framed into a reused buffer.
func benchCore(env *benchEnv) ([]benchOp, error) {
	eng := core.New(env.db.Catalog(), core.Options{Granularity: core.PageLevel, Workers: 4})
	fetch, err := env.db.Parse(`restrict(r1, val < 1000)`)
	if err != nil {
		return nil, err
	}
	r1, err := env.db.Get("r1")
	if err != nil {
		return nil, err
	}
	// r400 is r1's pages repeated up to 400, in a catalog of its own.
	r400 := relation.MustNew("r400", r1.Schema(), r1.PageSize())
	for i := 0; i < 400; i++ {
		if err := r400.AppendPage(r1.Page(i % r1.NumPages()).Clone()); err != nil {
			return nil, err
		}
	}
	cat400 := catalog.New()
	cat400.Put(r400)
	fetch400, err := query.Bind(query.MustParse(`restrict(r400, val < 1000)`), cat400)
	if err != nil {
		return nil, err
	}
	eng400 := core.New(cat400, core.Options{Granularity: core.PageLevel, Workers: 4})
	ctx := context.Background()

	// Every result page goes back to the free list as soon as it is
	// streamed, as the server's streamer lets go of it.
	release := func(pg *relation.Page) error {
		pg.Release()
		return nil
	}
	var mixPackets, mixDispatches, mixProbes, fetchPages, dispatches400 int64
	mix := func() error {
		mixPackets, mixDispatches, mixProbes = 0, 0, 0
		for _, q := range env.queries {
			res, err := eng.ExecuteStream(ctx, q, release)
			if err != nil {
				return err
			}
			mixPackets += res.Stats.InstructionPackets
			mixDispatches += res.Stats.Dispatches
			mixProbes += res.Stats.HashProbes
		}
		return nil
	}
	stream := func() error {
		fetchPages = 0
		_, err := eng.ExecuteStream(ctx, fetch, func(pg *relation.Page) error {
			fetchPages++
			pg.Release()
			return nil
		})
		return err
	}
	stream400 := func() error {
		res, err := eng400.ExecuteStream(ctx, fetch400, release)
		if err == nil {
			dispatches400 = res.Stats.Dispatches
		}
		return err
	}
	// One page of the serving size filled with r1's tuples, framed as the
	// server frames it: the head into a reused buffer, the payload left in
	// the page for the vectored write.
	served := relation.MustNewPage(core.DefaultPageSize, r1.Schema().TupleLen())
	r1.EachRaw(func(raw []byte) bool { return served.AppendRaw(raw) == nil })
	var head []byte
	rp := &wire.ResultPage{QueryID: 1, Seq: 1}
	encode := func() (err error) {
		head, err = wire.AppendResultHead(head[:0], rp, served)
		return err
	}
	return []benchOp{
		{mix, after(mix, func() map[string]float64 {
			return map[string]float64{
				"queries":             float64(len(env.queries)),
				"instruction_packets": float64(mixPackets),
				"dispatches":          float64(mixDispatches),
				"hash_probes":         float64(mixProbes), // reported, not gated: it follows arrival order
			}
		})},
		{stream, after(stream, func() map[string]float64 {
			return map[string]float64{"pages_in": float64(r1.NumPages()), "pages_out": float64(fetchPages)}
		})},
		{stream400, after(stream400, func() map[string]float64 {
			return map[string]float64{"instruction_packets": 400, "dispatches": float64(dispatches400)}
		})},
		{encode, after(encode, func() map[string]float64 {
			return map[string]float64{"frame_bytes": float64(len(head) + len(served.Data())), "head_bytes": float64(len(head))}
		})},
	}, nil
}

// benchMachineHotPath measures the machine's per-IP hot loop — paginator
// out of the page free list, JoinState kernel, operand pages recycled
// after use — over a paper-sized join.
func benchMachineHotPath(env *benchEnv) ([]benchOp, error) {
	outer, err := env.db.Get("r5")
	if err != nil {
		return nil, err
	}
	inner, err := env.db.Get("r11")
	if err != nil {
		return nil, err
	}
	bound, err := pred.Equi("k3", "k3").Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return nil, err
	}
	schema, err := relalg.JoinSchema(outer, inner)
	if err != nil {
		return nil, err
	}
	tupleLen := schema.TupleLen()
	outSize := relation.PageHeaderLen + 8*tupleLen

	var ks relalg.KernelStats
	pooled := func() error {
		st := relalg.NewJoinState(bound, &ks)
		st.MaxTables = inner.NumPages()
		pag, err := relation.NewPaginator(outSize, tupleLen)
		if err != nil {
			return err
		}
		emit := func(raw []byte) error {
			full, err := pag.Add(raw)
			if err != nil {
				return err
			}
			if full != nil {
				full.Release() // the consumer is done with it
			}
			return nil
		}
		for _, op := range outer.Pages() {
			// Each outer page probes every resident inner page, as one
			// IP does across the broadcast rounds of Section 4.2.
			for _, ip := range inner.Pages() {
				if _, err := st.JoinPages(op, ip, emit); err != nil {
					return err
				}
			}
		}
		if last := pag.Flush(); last != nil {
			last.Release()
		}
		return nil
	}

	// The free list's and the kernel's counters total every op; one more
	// op's share of them is the row's.
	pooledCounts := func() (map[string]float64, error) {
		p0, k0 := relation.PageStats(), ks.Load()
		if err := pooled(); err != nil {
			return nil, err
		}
		p, k := relation.PageStats(), ks.Load()
		return map[string]float64{
			"pool_hits":      float64(p.Hits - p0.Hits),
			"pool_misses":    float64(p.Misses - p0.Misses),
			"pages_recycled": float64(p.Recycled - p0.Recycled),
			"hash_probes":    float64(k.HashProbes - k0.HashProbes),
			"hash_builds":    float64(k.HashBuilds - k0.HashBuilds),
		}, nil
	}
	return []benchOp{{pooled, pooledCounts}}, nil
}

// benchMachineRun measures a full ring-machine multi-query run (paper
// queries 1, 3, 6) and reports the pool and kernel counters alongside
// the simulated makespan.
func benchMachineRun(env *benchEnv) ([]benchOp, error) {
	hw := dfdbm.DefaultHW()
	hw.PageSize = env.pageSize
	var res *dfdbm.MachineResults
	run := func() error {
		m, err := dfdbm.NewMachine(env.db, dfdbm.MachineConfig{HW: hw, ICs: 16, IPs: 16})
		if err != nil {
			return err
		}
		for _, n := range []int{0, 2, 5} {
			if err := m.Submit(env.queries[n]); err != nil {
				return err
			}
		}
		res, err = m.Run()
		return err
	}
	return []benchOp{{run, after(run, func() map[string]float64 {
		s := res.Stats
		return map[string]float64{
			"sim_makespan_seconds": res.Elapsed.Seconds(),
			"pool_hits":            float64(s.PoolHits),
			"pool_misses":          float64(s.PoolMisses),
			"pages_recycled":       float64(s.PagesRecycled),
			"hash_probes":          float64(s.HashProbes),
			"hash_builds":          float64(s.HashBuilds),
			"hash_table_hits":      float64(s.HashTableHits),
			"nested_pairs":         float64(s.NestedPairs),
		}
	})}}, nil
}

// benchDirectRun measures the DIRECT simulator on the paper benchmark
// and reports its page-descriptor recycling.
func benchDirectRun(env *benchEnv) ([]benchOp, error) {
	profiles, err := dfdbm.ProfileQueries(env.db, env.queries, env.pageSize)
	if err != nil {
		return nil, err
	}
	hw := dfdbm.DefaultHW()
	hw.PageSize = env.pageSize
	var rep dfdbm.DirectReport
	run := func() (err error) {
		rep, err = dfdbm.SimulateDIRECT(dfdbm.DirectConfig{Processors: 16, HW: hw}, profiles)
		return err
	}
	return []benchOp{{run, after(run, func() map[string]float64 {
		return map[string]float64{
			"sim_elapsed_seconds": rep.Elapsed.Seconds(),
			"pages_recycled":      float64(rep.PagesRecycled),
			"disk_reads":          float64(rep.DiskReads),
			"disk_writes":         float64(rep.DiskWrites),
		}
	})}}, nil
}

// benchFilter is the parsed -only flag: comma-separated benchmark name
// prefixes. An empty filter matches everything.
type benchFilter []string

func parseBenchFilter(s string) benchFilter {
	var f benchFilter
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			f = append(f, p)
		}
	}
	return f
}

func (f benchFilter) match(name string) bool {
	if len(f) == 0 {
		return true
	}
	for _, p := range f {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runBenchJSON measures every section with a row the filter matches —
// all of that section's rows — and returns the report.
func runBenchJSON(env *benchEnv, scale float64, seed int64, filter benchFilter) (benchReport, error) {
	rep := benchReport{
		Harness:    "dfdbm bench -json",
		Scale:      scale,
		Seed:       seed,
		PageSize:   env.pageSize,
		JoinTuples: equiJoinSize,
	}
	for _, s := range benchSections {
		if !slices.ContainsFunc(s.rows, func(r benchRow) bool { return filter.match(r.name) }) {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %s...\n", s.title)
		entries, err := s.measure(env)
		if err != nil {
			return rep, err
		}
		for _, e := range entries {
			fmt.Fprintf(os.Stderr, "bench:   %-28s %.0f ns/op\n", e.Name, e.NsPerOp)
		}
		rep.Benchmarks = append(rep.Benchmarks, entries...)
	}
	return rep, nil
}

// compareBenchReports is the -compare gate. It holds every baseline row
// the filter matches to its gate in benchSections (a row the table does
// not declare gets the throughput floor alone) and returns one line per
// row, with an error naming every regression. A row missing from fresh
// is an error, since silently dropping a measurement is how regressions
// hide; a row only in fresh passes.
func compareBenchReports(base, fresh benchReport, filter benchFilter) ([]string, error) {
	gates := map[string]benchGate{}
	for _, s := range benchSections {
		for _, r := range s.rows {
			gates[r.name] = r.gate
		}
	}
	freshByName := map[string]benchEntry{}
	for _, b := range fresh.Benchmarks {
		freshByName[b.Name] = b
	}
	const floor = 0.75 // fresh throughput must stay above 75% of baseline
	var lines, regressed []string
	for _, old := range base.Benchmarks {
		if !filter.match(old.Name) {
			continue
		}
		now, ok := freshByName[old.Name]
		if !ok {
			return lines, fmt.Errorf("bench compare: %s is in the baseline but missing from the fresh report", old.Name)
		}
		if old.NsPerOp <= 0 || now.NsPerOp <= 0 {
			continue
		}
		g := gates[old.Name]
		ratio := old.NsPerOp / now.NsPerOp // relative throughput: <1 means slower now
		verdict := "ok"
		fail := func(format string, args ...any) {
			verdict = "REGRESSION"
			regressed = append(regressed, old.Name+": "+fmt.Sprintf(format, args...))
		}
		if ratio < floor || g.ns && now.NsPerOp > 1.25*old.NsPerOp {
			fail("%.0f -> %.0f ns/op (%.0f%% of baseline throughput)", old.NsPerOp, now.NsPerOp, 100*ratio)
		}
		notes := ""
		if g.allocs {
			notes = fmt.Sprintf("  %d -> %d allocs/op", old.AllocsPerOp, now.AllocsPerOp)
			if 4*now.AllocsPerOp > 5*old.AllocsPerOp {
				fail("%d -> %d allocs/op", old.AllocsPerOp, now.AllocsPerOp)
			}
		}
		if was, is := old.Metrics[g.count], now.Metrics[g.count]; g.count != "" && was > 0 {
			notes += fmt.Sprintf("  %.0f -> %.0f %s", was, is, g.count)
			if is > g.slack*was {
				fail("%.0f -> %.0f %s", was, is, g.count)
			}
		}
		lines = append(lines, fmt.Sprintf("bench compare: %-28s %10.0f -> %10.0f ns/op  %5.2fx%s  %s",
			old.Name, old.NsPerOp, now.NsPerOp, ratio, notes, verdict))
	}
	if len(regressed) > 0 {
		return lines, fmt.Errorf("bench compare: throughput, allocations, dispatches or reads regressed:\n  %s", strings.Join(regressed, "\n  "))
	}
	return lines, nil
}

func readBenchReport(path string) (benchReport, error) {
	var rep benchReport
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &rep)
	}
	return rep, err
}

// benchJSON is `dfdbm bench -json`: it runs the harness, writes the
// report to out, and with compareWith set holds it to that baseline.
func benchJSON(env *benchEnv, scale float64, seed int64, out, compareWith string, filter benchFilter) error {
	rep, err := runBenchJSON(env, scale, seed, filter)
	if err != nil {
		return err
	}
	err = catalog.WriteFileAtomic(out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil {
		return err
	}
	fmt.Printf("bench: wrote %s (%d benchmarks)\n", out, len(rep.Benchmarks))
	if compareWith == "" {
		return nil
	}
	base, err := readBenchReport(compareWith)
	if err != nil {
		return fmt.Errorf("bench compare: baseline %s: %w", compareWith, err)
	}
	lines, err := compareBenchReports(base, rep, filter)
	for _, l := range lines {
		fmt.Println(l)
	}
	if err == nil {
		fmt.Printf("bench compare: %d benchmarks within 25%% of %s\n", len(lines), compareWith)
	}
	return err
}
