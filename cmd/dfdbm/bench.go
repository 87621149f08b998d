package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
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
	"dfdbm/internal/wire"
)

// The machine-readable benchmark harness behind `dfdbm bench -json`.
// It measures the hot execution path the ISSUE's cost model is
// dominated by — the per-page-pair join kernel and the page traffic
// around it — and emits BENCH_machine.json so future changes can be
// diffed against these numbers.

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
	Harness    string  `json:"harness"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	PageSize   int     `json:"page_size"`
	JoinTuples int     `json:"join_tuples"`

	Benchmarks []benchEntry `json:"benchmarks"`

	// EquijoinHashSpeedup is nested-loops ns/op over hash ns/op on the
	// large equi-join workload.
	EquijoinHashSpeedup float64 `json:"equijoin_hash_speedup"`
	// MachineAllocReduction is the fractional allocs/op saved by the
	// page pool on the machine hot-path benchmark (0.5 = half).
	MachineAllocReduction float64 `json:"machine_alloc_reduction"`
	// EnginesMatchSerial records the cross-engine identity check: the
	// functional engine and the ring machine produced results identical
	// to the serial reference on the paper queries.
	EnginesMatchSerial bool `json:"engines_match_serial"`
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

func entryFrom(name string, r testing.BenchmarkResult, metrics map[string]float64) benchEntry {
	return benchEntry{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Metrics:     metrics,
	}
}

// buildEquiJoinWorkload builds the large synthetic equi-join inputs:
// n tuples per side, 64-bit keys in pseudo-random order, exactly one
// inner match per outer tuple.
func buildEquiJoinWorkload(n, pageSize int) (outer, inner *relation.Relation, cond pred.JoinCond, err error) {
	oschema, err := relation.NewSchema(
		relation.Attr{Name: "ok", Type: relation.Int64},
		relation.Attr{Name: "ov", Type: relation.Int64},
	)
	if err != nil {
		return nil, nil, cond, err
	}
	ischema, err := relation.NewSchema(
		relation.Attr{Name: "ik", Type: relation.Int64},
		relation.Attr{Name: "iv", Type: relation.Int64},
	)
	if err != nil {
		return nil, nil, cond, err
	}
	outer, err = relation.New("bench_outer", oschema, pageSize)
	if err != nil {
		return nil, nil, cond, err
	}
	inner, err = relation.New("bench_inner", ischema, pageSize)
	if err != nil {
		return nil, nil, cond, err
	}
	// Two different full-cycle permutations of 0..n-1 so matching pairs
	// land on unrelated page positions.
	perm := func(i, a, b int) int64 { return int64((i*a + b) % n) }
	for i := 0; i < n; i++ {
		if err := outer.Insert(relation.Tuple{relation.IntVal(perm(i, 7, 3)), relation.IntVal(int64(i))}); err != nil {
			return nil, nil, cond, err
		}
		if err := inner.Insert(relation.Tuple{relation.IntVal(perm(i, 11, 5)), relation.IntVal(int64(i))}); err != nil {
			return nil, nil, cond, err
		}
	}
	return outer, inner, pred.Equi("ok", "ik"), nil
}

// benchEquiJoin times the nested-loops and hash kernels on the large
// workload and verifies the hash result is byte-identical first.
func benchEquiJoin(n, pageSize int) (nested, hash benchEntry, speedup float64, err error) {
	outer, inner, cond, err := buildEquiJoinWorkload(n, pageSize)
	if err != nil {
		return nested, hash, 0, err
	}
	ref, err := relalg.NestedLoopsJoin(outer, inner, cond, "ref")
	if err != nil {
		return nested, hash, 0, err
	}
	got, err := relalg.HashJoin(outer, inner, cond, "ref")
	if err != nil {
		return nested, hash, 0, err
	}
	if err := relationsIdentical(ref, got); err != nil {
		return nested, hash, 0, fmt.Errorf("hash kernel result differs from nested loops: %w", err)
	}

	nr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relalg.NestedLoopsJoin(outer, inner, cond, "out"); err != nil {
				b.Fatal(err)
			}
		}
	})
	hr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relalg.HashJoin(outer, inner, cond, "out"); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One instrumented pass for the kernel counters.
	bound, err := cond.Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return nested, hash, 0, err
	}
	var ks relalg.KernelStats
	st := relalg.NewJoinState(bound, &ks)
	st.MaxTables = inner.NumPages()
	sink := func([]byte) error { return nil }
	for _, op := range outer.Pages() {
		for _, ip := range inner.Pages() {
			if _, err := st.JoinPages(op, ip, sink); err != nil {
				return nested, hash, 0, err
			}
		}
	}
	k := ks.Load()

	pairs := float64(outer.Cardinality()) * float64(inner.Cardinality())
	nested = entryFrom("equijoin/nested-loops", nr, map[string]float64{
		"tuple_pairs": pairs,
		"tuples_out":  float64(ref.Cardinality()),
	})
	hash = entryFrom("equijoin/hash", hr, map[string]float64{
		"hash_probes":     float64(k.HashProbes),
		"hash_builds":     float64(k.HashBuilds),
		"hash_table_hits": float64(k.TableHits),
		"tuples_out":      float64(got.Cardinality()),
	})
	speedup = nested.NsPerOp / hash.NsPerOp
	return nested, hash, speedup, nil
}

// benchHashPhases splits the equi-join hash kernel into its two phases:
// building the per-inner-page hash tables and probing with every table
// resident (the steady state of the machine's broadcast join, where one
// inner page's table serves a run of outer pages).
func benchHashPhases(n, pageSize int) (build, probe benchEntry, err error) {
	outer, inner, cond, err := buildEquiJoinWorkload(n, pageSize)
	if err != nil {
		return build, probe, err
	}
	bound, err := cond.Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return build, probe, err
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
	rs := benchBestRound(5,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Reset() // drop the tables so every iteration builds anew
				for _, ip := range innerPages {
					st.Build(ip)
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, op := range outer.Pages() {
					for _, ip := range innerPages {
						if _, err := pst.JoinPages(op, ip, sink); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	br, pr := rs[0], rs[1]
	build = entryFrom("equijoin/hash-build", br, map[string]float64{
		"inner_pages":  float64(len(innerPages)),
		"inner_tuples": float64(inner.Cardinality()),
	})
	probe = entryFrom("equijoin/hash-probe", pr, map[string]float64{
		"outer_tuples": float64(outer.Cardinality()),
		"inner_pages":  float64(len(innerPages)),
	})
	return build, probe, nil
}

// benchKernels measures the page kernels head to head on the paper
// database's r5: the scalar tuple-at-a-time restrict against the
// batched bitmap kernel, the batched project, and the fused
// restrict+project loop. The batched kernels' results are verified
// byte-identical to the scalar kernels' by TestBatchKernels; here they
// are only timed.
func benchKernels(db *dfdbm.DB) ([]benchEntry, error) {
	rel, err := db.Get("r5")
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
	tuples := float64(rel.Cardinality())

	rs := relalg.NewRestrictState(bound)
	ps := relalg.NewProjectState(pj)
	d := relalg.NewDedup()
	results := benchBestRound(5,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pg := range pages {
					if _, err := relalg.RestrictPage(pg, bound, sink); err != nil {
						b.Fatal(err)
					}
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pg := range pages {
					if _, err := rs.RestrictPage(pg, sink); err != nil {
						b.Fatal(err)
					}
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Reset()
				for _, pg := range pages {
					if _, err := ps.ProjectPage(pg, d, sink); err != nil {
						b.Fatal(err)
					}
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Reset()
				for _, pg := range pages {
					if _, err := rs.RestrictProjectPage(pg, pj, d, sink); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	scalar, batch, project, fused := results[0], results[1], results[2], results[3]
	vec := 0.0
	if rs.Vectorized() {
		vec = 1
	}
	return []benchEntry{
		entryFrom("kernel/restrict-scalar", scalar, map[string]float64{"tuples": tuples}),
		entryFrom("kernel/restrict-batch", batch, map[string]float64{"tuples": tuples, "vectorized": vec}),
		entryFrom("kernel/project-batch", project, map[string]float64{"tuples": tuples}),
		entryFrom("kernel/restrict-project-fused", fused, map[string]float64{"tuples": tuples, "vectorized": vec}),
	}, nil
}

// benchHeap measures the paged-storage path on the paper database's
// r5: a full scan with the buffer pool far below the relation (every
// page faults and a victim evicts — the disk-bound cold case; the pool
// is too small for runs longer than a page), the same scan with the
// pool above the relation (steady-state cache hits), stored appends
// streaming post-image pages through the pool under eviction and
// write-back pressure, and the run path: r5's pages repeated up to 400,
// whatever the scale, scanned through a 64-frame pool — by one scanner
// (reads = physical reads per scan) and by 2 and 8 scanners at once,
// each over a relation of its own, all sharing the pool.
func benchHeap(db *dfdbm.DB) ([]benchEntry, error) {
	src, err := db.Get("r5")
	if err != nil {
		return nil, err
	}
	n := src.NumPages()
	adopt := func(name string, frames int, reg *obs.Registry) (*relation.Relation, *heap.Store, error) {
		dir, err := os.MkdirTemp("", "dfdbm-bench-heap-")
		if err != nil {
			return nil, nil, err
		}
		st, err := heap.OpenStore(dir, frames, obs.New(nil, reg))
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		rel := src.Clone(name)
		if err := st.Adopt(rel, 1); err != nil {
			st.Close()
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return rel, st, nil
	}
	coldFrames := n / 8
	if coldFrames < 2 {
		coldFrames = 2
	}
	coldReg := obs.NewRegistry(time.Second)
	cold, coldStore, err := adopt("bench_heap_cold", coldFrames, coldReg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(coldStore.Dir())
	defer coldStore.Close()
	warmReg := obs.NewRegistry(time.Second)
	warm, warmStore, err := adopt("bench_heap_warm", n+8, warmReg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(warmStore.Dir())
	defer warmStore.Close()
	appReg := obs.NewRegistry(time.Second)
	app, appStore, err := adopt("bench_heap_app", coldFrames, appReg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(appStore.Dir())
	defer appStore.Close()

	const runPages, runFrames, maxScanners = 400, 64, 8
	r400 := relation.MustNew("bench_heap_run", src.Schema(), src.PageSize())
	for i := 0; i < runPages; i++ {
		if err := r400.AppendPage(src.Page(i % n).Clone()); err != nil {
			return nil, err
		}
	}
	runReg := obs.NewRegistry(time.Second)
	runDir, err := os.MkdirTemp("", "dfdbm-bench-heap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	runStore, err := heap.OpenStore(runDir, runFrames, obs.New(nil, runReg))
	if err != nil {
		return nil, err
	}
	defer runStore.Close()
	runs := make([]*relation.Relation, maxScanners)
	for i := range runs {
		runs[i] = r400.Clone(fmt.Sprintf("bench_heap_run%d", i))
		if err := runStore.Adopt(runs[i], 1); err != nil {
			return nil, err
		}
	}

	// scan reads every page and releases it, as the engine's workers do:
	// a scan that kept its pages would measure the collector fallback, a
	// fresh page per miss.
	scan := func(rel *relation.Relation) error {
		tuples := 0
		return rel.EachPage(func(pg *relation.Page) error {
			tuples += pg.TupleCount()
			pg.Release()
			return nil
		})
	}
	if err := scan(warm); err != nil { // warm the pool before measuring
		return nil, err
	}
	// scanTogether is one op of heap/scan-concurrent: k scanners, one
	// relation each, started together and all waited for.
	scanTogether := func(k int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			errs := make([]error, k)
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < k; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[j] = scan(runs[j])
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	const appendBatch = 256
	raw := append([]byte(nil), src.Page(0).RawTuple(0)...)

	rs := benchBestRound(3,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := scan(cold); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := scan(warm); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < appendBatch; j++ {
					if err := app.InsertRaw(raw); err != nil {
						b.Fatal(err)
					}
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := scan(runs[0]); err != nil {
					b.Fatal(err)
				}
			}
		},
		scanTogether(2), scanTogether(maxScanners))
	// A lone scan's physical reads are a function of its length and the
	// pool's size, so one more scan counts them.
	reads := runReg.Counter("bufpool.reads")
	if err := scan(runs[0]); err != nil {
		return nil, err
	}
	reads = runReg.Counter("bufpool.reads") - reads
	hitRate := func(reg *obs.Registry) float64 {
		hits, misses := float64(reg.Counter("bufpool.hits")), float64(reg.Counter("bufpool.misses"))
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	return []benchEntry{
		entryFrom("heap/scan-cold", rs[0], map[string]float64{
			"pages":     float64(n),
			"frames":    float64(coldFrames),
			"evictions": float64(coldReg.Counter("bufpool.evictions")),
			"hit_rate":  hitRate(coldReg),
		}),
		entryFrom("heap/scan-warm", rs[1], map[string]float64{
			"pages":    float64(n),
			"frames":   float64(n + 8),
			"hit_rate": hitRate(warmReg),
		}),
		entryFrom("heap/append", rs[2], map[string]float64{
			"tuples_per_op": appendBatch,
			"frames":        float64(coldFrames),
			"writebacks":    float64(appReg.Counter("bufpool.writebacks")),
		}),
		entryFrom("heap/scan-run", rs[3], map[string]float64{
			"pages":  runPages,
			"frames": runFrames,
			"reads":  float64(reads),
		}),
		entryFrom("heap/scan-concurrent/2", rs[4], map[string]float64{
			"pages":  2 * runPages,
			"frames": runFrames,
		}),
		entryFrom(fmt.Sprintf("heap/scan-concurrent/%d", maxScanners), rs[5], map[string]float64{
			"pages":  maxScanners * runPages,
			"frames": runFrames,
		}),
	}, nil
}

// benchCore measures the functional engine as the server drives it —
// one shared engine at page granularity with four workers — and the
// wire encoder behind it: the paper's ten-query mix collected through
// ExecuteContext, a whole-relation restrict streamed through
// ExecuteStream with every page handed back to the pool (the controller
// event queue and the root's page stream, with no socket), the same
// restrict over exactly 400 pages whatever the scale (the scan length
// the run path is sized for), and one result page framed into a reused
// buffer.
func benchCore(db *dfdbm.DB, queries []*dfdbm.Query, pageSize int) ([]benchEntry, error) {
	eng := core.New(db.Catalog(), core.Options{Granularity: core.PageLevel, Workers: 4, PageSize: pageSize})
	fetch, err := db.Parse(`restrict(r1, val < 1000)`)
	if err != nil {
		return nil, err
	}
	r1, err := db.Get("r1")
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
	eng400 := core.New(cat400, core.Options{Granularity: core.PageLevel, Workers: 4, PageSize: pageSize})
	page := r1.Page(0)
	ctx := context.Background()
	var mixPackets, mixDispatches, fetchPages, dispatches400 int64
	var frame []byte
	rs := benchBestRound(3,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mixPackets, mixDispatches = 0, 0
				for _, q := range queries {
					res, err := eng.ExecuteContext(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					mixPackets += res.Stats.InstructionPackets
					mixDispatches += res.Stats.Dispatches
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fetchPages = 0
				_, err := eng.ExecuteStream(ctx, fetch, func(pg *relation.Page) error {
					fetchPages++
					eng.Recycle(pg)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := eng400.ExecuteStream(ctx, fetch400, func(pg *relation.Page) error {
					eng400.Recycle(pg)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				dispatches400 = res.Stats.Dispatches
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			rp := &wire.ResultPage{QueryID: 1, Seq: 1, Source: page}
			for i := 0; i < b.N; i++ {
				var err error
				if frame, err = wire.AppendFrame(frame[:0], rp, wire.Version); err != nil {
					b.Fatal(err)
				}
			}
		})
	return []benchEntry{
		entryFrom("core/paper-mix", rs[0], map[string]float64{
			"queries":             float64(len(queries)),
			"instruction_packets": float64(mixPackets),
			"dispatches":          float64(mixDispatches),
		}),
		entryFrom("core/fetch-restrict", rs[1], map[string]float64{
			"pages_in":  float64(r1.NumPages()),
			"pages_out": float64(fetchPages),
		}),
		entryFrom("core/restrict-400", rs[2], map[string]float64{
			"instruction_packets": 400,
			"dispatches":          float64(dispatches400),
		}),
		entryFrom("wire/encode-page", rs[3], map[string]float64{
			"frame_bytes": float64(len(frame)),
		}),
	}, nil
}

// benchMachineHotPath measures the machine's per-IP hot loop — pooled
// paginator out, JoinState kernel, operand pages recycled after use —
// with and without the page pool, over a paper-sized join.
func benchMachineHotPath(db *dfdbm.DB, pageSize int) (pooled, bare benchEntry, reduction float64, err error) {
	outer, err := db.Get("r5")
	if err != nil {
		return pooled, bare, 0, err
	}
	inner, err := db.Get("r11")
	if err != nil {
		return pooled, bare, 0, err
	}
	cond := pred.Equi("k3", "k3")
	bound, err := cond.Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return pooled, bare, 0, err
	}
	schema, err := relalg.JoinSchema(outer, inner)
	if err != nil {
		return pooled, bare, 0, err
	}
	tupleLen := schema.TupleLen()
	outSize := relation.PageHeaderLen + 8*tupleLen

	run := func(pool *relation.PagePool, ks *relalg.KernelStats) error {
		st := relalg.NewJoinState(bound, ks)
		st.MaxTables = inner.NumPages()
		pag, err := relation.NewPooledPaginator(outSize, tupleLen, pool)
		if err != nil {
			return err
		}
		emit := func(raw []byte) error {
			full, err := pag.Add(raw)
			if err != nil {
				return err
			}
			if full != nil {
				pool.Put(full) // the consumer is done with it
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
			pool.Put(last)
		}
		return nil
	}

	var ks relalg.KernelStats
	pool := relation.NewPagePool()
	pr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(pool, &ks); err != nil {
				b.Fatal(err)
			}
		}
	})
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	ps := pool.Stats()
	k := ks.Load()
	pooled = entryFrom("machine/hot-path/pooled", pr, map[string]float64{
		"pool_hits":      float64(ps.Hits),
		"pool_misses":    float64(ps.Misses),
		"pages_recycled": float64(ps.Recycled),
		"hash_probes":    float64(k.HashProbes),
		"hash_builds":    float64(k.HashBuilds),
	})
	bare = entryFrom("machine/hot-path/no-pool", br, nil)
	if bare.AllocsPerOp > 0 {
		reduction = 1 - float64(pooled.AllocsPerOp)/float64(bare.AllocsPerOp)
	}
	return pooled, bare, reduction, nil
}

// benchMachineRun measures a full ring-machine multi-query run (paper
// queries 1, 3, 6) and reports the pool and kernel counters alongside
// the simulated makespan.
func benchMachineRun(db *dfdbm.DB, queries []*dfdbm.Query, pageSize int) (benchEntry, error) {
	hw := dfdbm.DefaultHW()
	hw.PageSize = pageSize
	var res *dfdbm.MachineResults
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw, ICs: 16, IPs: 16})
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range []int{0, 2, 5} {
				if err := m.Submit(queries[n]); err != nil {
					b.Fatal(err)
				}
			}
			res, err = m.Run()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	s := res.Stats
	return entryFrom("machine/ring-run", r, map[string]float64{
		"sim_makespan_seconds": res.Elapsed.Seconds(),
		"pool_hits":            float64(s.PoolHits),
		"pool_misses":          float64(s.PoolMisses),
		"pages_recycled":       float64(s.PagesRecycled),
		"hash_probes":          float64(s.HashProbes),
		"hash_builds":          float64(s.HashBuilds),
		"hash_table_hits":      float64(s.HashTableHits),
		"nested_pairs":         float64(s.NestedPairs),
	}), nil
}

// benchDirectRun measures the DIRECT simulator on the paper benchmark
// and reports its page-descriptor recycling.
func benchDirectRun(db *dfdbm.DB, queries []*dfdbm.Query, pageSize int) (benchEntry, error) {
	profiles, err := dfdbm.ProfileQueries(db, queries, pageSize)
	if err != nil {
		return benchEntry{}, err
	}
	hw := dfdbm.DefaultHW()
	hw.PageSize = pageSize
	var rep dfdbm.DirectReport
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = dfdbm.SimulateDIRECT(dfdbm.DirectConfig{Processors: 16, HW: hw}, profiles)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	return entryFrom("direct/run", r, map[string]float64{
		"sim_elapsed_seconds": rep.Elapsed.Seconds(),
		"pages_recycled":      float64(rep.PagesRecycled),
		"disk_reads":          float64(rep.DiskReads),
		"disk_writes":         float64(rep.DiskWrites),
	}), nil
}

// checkEnginesMatchSerial runs the paper join/project queries through
// the functional engine and the ring machine and compares both against
// the serial reference.
func checkEnginesMatchSerial(db *dfdbm.DB, queries []*dfdbm.Query, pageSize int) error {
	hw := dfdbm.DefaultHW()
	hw.PageSize = pageSize
	for _, n := range []int{0, 2, 5} {
		q := queries[n]
		want, err := db.ExecuteSerial(q)
		if err != nil {
			return err
		}
		res, err := db.Execute(q, dfdbm.EngineOptions{Granularity: dfdbm.PageLevel, Workers: 4, PageSize: pageSize})
		if err != nil {
			return err
		}
		if !res.Relation.EqualMultiset(want) {
			return fmt.Errorf("query %d: functional engine differs from serial reference", n+1)
		}
		m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw})
		if err != nil {
			return err
		}
		if err := m.Submit(q); err != nil {
			return err
		}
		mres, err := m.Run()
		if err != nil {
			return err
		}
		if !mres.PerQuery[0].Relation.EqualMultiset(want) {
			return fmt.Errorf("query %d: ring machine differs from serial reference", n+1)
		}
	}
	return nil
}

func relationsIdentical(a, b *relation.Relation) error {
	if a.Cardinality() != b.Cardinality() {
		return fmt.Errorf("cardinality %d vs %d", a.Cardinality(), b.Cardinality())
	}
	if !a.EqualMultiset(b) {
		return fmt.Errorf("tuple sets differ")
	}
	return nil
}

// writeBenchProfile re-runs the ring-machine multi-query workload once
// with spans and per-bucket metrics enabled and writes the EXPLAIN
// ANALYZE + saturation report as JSON. CI uploads the file next to
// BENCH_machine.json so every build carries its own attribution
// artifact.
func writeBenchProfile(db *dfdbm.DB, queries []*dfdbm.Query, out string, pageSize int) error {
	hw := dfdbm.DefaultHW()
	hw.PageSize = pageSize
	o := dfdbm.NewObserver(nil, dfdbm.NewMetrics(time.Millisecond))
	o.EnableSpans()
	m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw, ICs: 16, IPs: 16, Obs: o})
	if err != nil {
		return err
	}
	for _, n := range []int{0, 2, 5} {
		if err := m.Submit(queries[n]); err != nil {
			return err
		}
	}
	res, err := m.Run()
	if err != nil {
		return err
	}
	prof := dfdbm.BuildProfile(o.Spans().Snapshot(), res.Elapsed)
	sat := dfdbm.Saturation(o.Registry(), res.Elapsed, m.Resources())
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := prof.JSON(f, sat); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func (f benchFilter) match(names ...string) bool {
	if len(f) == 0 {
		return true
	}
	for _, n := range names {
		for _, p := range f {
			if strings.HasPrefix(n, p) {
				return true
			}
		}
	}
	return false
}

// allocGated names the benchmarks whose allocs/op the regression gate
// holds, beside their time.
var allocGated = map[string]bool{
	"core/paper-mix": true,
	"heap/scan-cold": true,
	"heap/scan-run":  true,
	"heap/append":    true,
	"equijoin/hash":  true,
}

// timeGated names the benchmarks held to a tighter time bound than the
// rest — more than 25% more ns/op fails, where the general floor of 75%
// of baseline throughput allows a third more: the two engine rows a
// change to the hand-off path moves first, and the storage row a change
// to the buffer pool's run path does.
var timeGated = map[string]bool{
	"core/paper-mix":      true,
	"core/fetch-restrict": true,
	"heap/scan-run":       true,
}

// countSlack is how far a row's counted metric may exceed the
// baseline's: "dispatches", physical packets through the arbitration
// network, and "reads", physical reads of a heap file. A lone scan's
// runs are a function of its length (and its reads of the pool's size
// too), so any rise there is a change in the hand-off or the storage
// path; in the mix a join's packet count depends on how much of the
// other side was buffered when each page arrived, which moves by a
// tenth or so from run to run.
var countSlack = map[string]struct {
	metric string
	slack  float64
}{
	"core/restrict-400": {"dispatches", 1},
	"core/paper-mix":    {"dispatches", 1.25},
	"heap/scan-run":     {"reads", 1},
}

// compareBenchReports guards against performance regressions: it loads
// the committed baseline report and a fresh one and fails when any
// benchmark present in both lost more than 25% throughput (fresh
// ns/op more than 4/3 of the baseline). New benchmarks — present only
// in the fresh report — pass; a benchmark that disappeared is an
// error, since silently dropping a measurement is how regressions
// hide. A non-empty filter restricts the comparison to the baseline
// entries the fresh (filtered) run was asked to measure.
//
// The rows in allocGated also fail on allocs/op more than 25% over the
// baseline: they are the paths that recycle page memory, and unlike
// time an allocation count repeats from run to run, so a rise is a
// leak in the recycling, not noise. The rows in timeGated fail on more
// than 25% more ns/op, and those in countSlack on a counted metric above
// the baseline's times their slack.
func compareBenchReports(basePath, freshPath string, filter benchFilter) error {
	load := func(path string) (benchReport, error) {
		var rep benchReport
		f, err := os.Open(path)
		if err != nil {
			return rep, err
		}
		defer f.Close()
		return rep, json.NewDecoder(f).Decode(&rep)
	}
	base, err := load(basePath)
	if err != nil {
		return fmt.Errorf("bench compare: baseline %s: %w", basePath, err)
	}
	fresh, err := load(freshPath)
	if err != nil {
		return fmt.Errorf("bench compare: fresh %s: %w", freshPath, err)
	}
	freshByName := map[string]benchEntry{}
	for _, b := range fresh.Benchmarks {
		freshByName[b.Name] = b
	}
	const floor = 0.75 // fresh throughput must stay above 75% of baseline
	var regressed []string
	compared := 0
	for _, old := range base.Benchmarks {
		if !filter.match(old.Name) {
			continue
		}
		compared++
		now, ok := freshByName[old.Name]
		if !ok {
			return fmt.Errorf("bench compare: %s is in the baseline but missing from the fresh report", old.Name)
		}
		if old.NsPerOp <= 0 || now.NsPerOp <= 0 {
			continue
		}
		ratio := old.NsPerOp / now.NsPerOp // relative throughput: <1 means slower now
		verdict := "ok"
		if ratio < floor || timeGated[old.Name] && now.NsPerOp > 1.25*old.NsPerOp {
			verdict = "REGRESSION"
			regressed = append(regressed,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.0f%% of baseline throughput)", old.Name, old.NsPerOp, now.NsPerOp, 100*ratio))
		}
		notes := ""
		if allocGated[old.Name] {
			notes = fmt.Sprintf("  %d -> %d allocs/op", old.AllocsPerOp, now.AllocsPerOp)
			if 4*now.AllocsPerOp > 5*old.AllocsPerOp {
				verdict = "REGRESSION"
				regressed = append(regressed,
					fmt.Sprintf("%s: %d -> %d allocs/op", old.Name, old.AllocsPerOp, now.AllocsPerOp))
			}
		}
		if g, ok := countSlack[old.Name]; ok && old.Metrics[g.metric] > 0 {
			was, is := old.Metrics[g.metric], now.Metrics[g.metric]
			notes += fmt.Sprintf("  %.0f -> %.0f %s", was, is, g.metric)
			if is > g.slack*was {
				verdict = "REGRESSION"
				regressed = append(regressed,
					fmt.Sprintf("%s: %.0f -> %.0f %s", old.Name, was, is, g.metric))
			}
		}
		fmt.Printf("bench compare: %-28s %10.0f -> %10.0f ns/op  %5.2fx%s  %s\n",
			old.Name, old.NsPerOp, now.NsPerOp, ratio, notes, verdict)
	}
	if len(regressed) > 0 {
		msg := "bench compare: throughput, allocations, dispatches or reads regressed:"
		for _, r := range regressed {
			msg += "\n  " + r
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Printf("bench compare: %d benchmarks within 25%% of %s\n", compared, basePath)
	return nil
}

// runBenchJSON runs the harness and writes the report. A non-empty
// filter runs only the sections whose benchmark names it matches.
func runBenchJSON(db *dfdbm.DB, queries []*dfdbm.Query, out string, scale float64, seed int64, pageSize, joinTuples int, filter benchFilter) {
	rep := benchReport{
		Harness:    "dfdbm bench -json",
		Scale:      scale,
		Seed:       seed,
		PageSize:   pageSize,
		JoinTuples: joinTuples,
	}

	if filter.match("equijoin/nested-loops", "equijoin/hash") {
		fmt.Fprintf(os.Stderr, "bench: large equi-join (%d x %d tuples), nested vs hash...\n", joinTuples, joinTuples)
		nested, hash, speedup, err := benchEquiJoin(joinTuples, pageSize)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, nested, hash)
		rep.EquijoinHashSpeedup = speedup
		fmt.Fprintf(os.Stderr, "bench:   nested %.0f ns/op, hash %.0f ns/op — %.1fx\n",
			nested.NsPerOp, hash.NsPerOp, speedup)
	}

	if filter.match("equijoin/hash-build", "equijoin/hash-probe") {
		fmt.Fprintln(os.Stderr, "bench: hash-join build and probe phases...")
		build, probe, err := benchHashPhases(joinTuples, pageSize)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, build, probe)
		fmt.Fprintf(os.Stderr, "bench:   build %.0f ns/op, probe %.0f ns/op\n",
			build.NsPerOp, probe.NsPerOp)
	}

	if filter.match("kernel/restrict-scalar", "kernel/restrict-batch",
		"kernel/project-batch", "kernel/restrict-project-fused") {
		fmt.Fprintln(os.Stderr, "bench: page kernels, scalar vs batched...")
		kernels, err := benchKernels(db)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, kernels...)
		for _, k := range kernels {
			fmt.Fprintf(os.Stderr, "bench:   %-28s %.0f ns/op\n", k.Name, k.NsPerOp)
		}
	}

	if filter.match("heap/scan-cold", "heap/scan-warm", "heap/append",
		"heap/scan-run", "heap/scan-concurrent/2", "heap/scan-concurrent/8") {
		fmt.Fprintln(os.Stderr, "bench: heap storage, cold vs warm scans, stored appends, run scans alone and together...")
		hb, err := benchHeap(db)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, hb...)
		for _, k := range hb {
			fmt.Fprintf(os.Stderr, "bench:   %-28s %.0f ns/op\n", k.Name, k.NsPerOp)
		}
	}

	if filter.match("core/paper-mix", "core/fetch-restrict", "core/restrict-400", "wire/encode-page") {
		fmt.Fprintln(os.Stderr, "bench: functional engine (paper mix, streamed fetch) and frame encoder...")
		cb, err := benchCore(db, queries, pageSize)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, cb...)
		for _, k := range cb {
			fmt.Fprintf(os.Stderr, "bench:   %-28s %.0f ns/op\n", k.Name, k.NsPerOp)
		}
	}

	if filter.match("machine/hot-path/pooled", "machine/hot-path/no-pool") {
		fmt.Fprintln(os.Stderr, "bench: machine hot path, pooled vs no-pool...")
		pooled, bare, reduction, err := benchMachineHotPath(db, pageSize)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, pooled, bare)
		rep.MachineAllocReduction = reduction
		fmt.Fprintf(os.Stderr, "bench:   %d vs %d allocs/op — %.0f%% fewer\n",
			pooled.AllocsPerOp, bare.AllocsPerOp, 100*reduction)
	}

	if filter.match("machine/ring-run") {
		fmt.Fprintln(os.Stderr, "bench: ring-machine multi-query run...")
		mrun, err := benchMachineRun(db, queries, pageSize)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, mrun)
	}

	if filter.match("direct/run") {
		fmt.Fprintln(os.Stderr, "bench: DIRECT benchmark run...")
		drun, err := benchDirectRun(db, queries, pageSize)
		check(err)
		rep.Benchmarks = append(rep.Benchmarks, drun)
	}

	if len(filter) == 0 {
		fmt.Fprintln(os.Stderr, "bench: cross-engine identity check...")
		check(checkEnginesMatchSerial(db, queries, pageSize))
		rep.EnginesMatchSerial = true
	}

	f, err := os.Create(out)
	check(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	check(enc.Encode(rep))
	check(f.Close())
	if len(filter) == 0 {
		fmt.Printf("bench: wrote %s (equi-join speedup %.1fx, hot-path alloc reduction %.0f%%, engines match serial: %v)\n",
			out, rep.EquijoinHashSpeedup, 100*rep.MachineAllocReduction, rep.EnginesMatchSerial)
	} else {
		fmt.Printf("bench: wrote %s (%d benchmarks, filter %q)\n", out, len(rep.Benchmarks), strings.Join(filter, ","))
	}
}
