package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dfdbm"
	"dfdbm/internal/core"
	"dfdbm/internal/pred"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
	"dfdbm/internal/wire"
)

// replayBudget is how long each single-threaded layer loop runs at
// least; loops execute whole passes of the workload's queries.
const replayBudget = 300 * time.Millisecond

// replayTexts is the workload's deck as read-only queries, one entry
// per op, so that per-exec means weigh queries as the rounds do. An
// append stands in as the pure subtree the server's durable path runs
// on the engine; a trim runs no engine code.
func (e *env) replayTexts() []string {
	var out []string
	if e.sp.name == "ingest" {
		for i := 0; i < appendsPerPass; i++ {
			out = append(out, ingestSource)
		}
	}
	for _, g := range e.sp.deck.groups {
		for _, o := range g {
			out = append(out, o.text)
		}
	}
	return out
}

// loop runs pass over and over until the budget is spent, at least
// once, and returns how many passes ran and how long they took.
func loop(ctx context.Context, pass func() error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < replayBudget {
		if err := ctx.Err(); err != nil {
			return n, 0, err
		}
		if err := pass(); err != nil {
			return n, 0, err
		}
		n++
	}
	return n, time.Since(start), nil
}

// layerBench fills in the per-layer metrics that rounds cannot give:
// the metrics-off comparison, and each layer's public functions timed
// single-threaded on the workload's own queries while the server idles.
func (e *env) layerBench(ctx context.Context, d *driver, opt options, res *outcome) error {
	layer := res.layer

	// Metrics off: the same load against a server whose Config.Obs is
	// nil, in the order on, off, off, on so that drift cancels.
	if err := e.startPlain(); err != nil {
		return err
	}
	dp := newDriver(e, e.plainSess, opt.seed+1, opt.started)
	block := limit{d: time.Duration(opt.seconds / rounds * float64(time.Second))}
	var on, off roundStat
	for _, drv := range []*driver{d, dp, dp, d} {
		st := drv.round(ctx, block, false)
		if err := ctx.Err(); err != nil {
			return err
		}
		acc := &on
		if drv == dp {
			acc = &off
		}
		acc.ops += st.ops
		acc.wall += st.wall
	}
	res.absorb(d.logs)
	res.absorb(dp.logs)
	layer["obs.metrics_off_throughput_ratio"] = ratio(float64(off.ops)/off.wall.Seconds(), float64(on.ops)/on.wall.Seconds())

	cat := e.db.Catalog()
	texts := e.replayTexts()
	trees := make([]*query.Tree, len(texts))

	// query: parse and bind every op's text.
	n, took, err := loop(ctx, func() error {
		for i, text := range texts {
			root, err := query.Parse(text)
			if err != nil {
				return err
			}
			if trees[i], err = query.Bind(root, cat); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay parse+bind: %w", err)
	}
	execs := float64(n * len(texts))
	layer["query.parse_bind_us"] = float64(took.Microseconds()) / execs

	// core: the engine with the server's options, called by as many
	// goroutines as the workload has sessions (an engine hand-off costs
	// more on an idle host than on a busy one, so a lone caller would
	// not be comparable with server.exec_ms), metering into a registry
	// of its own so the server's counters stay the rounds'.
	eng := core.New(cat, core.Options{
		Granularity: core.PageLevel,
		Workers:     4,
		Obs:         dfdbm.NewObserver(nil, dfdbm.NewMetrics(metricsBucket)),
	})
	var moved atomic.Int64
	callers := e.sp.sessions
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, took, err = loop(ctx, func() error {
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Each caller runs the whole deck, from its own offset.
				for i := range trees {
					r, err := eng.ExecuteContext(ctx, trees[(i+c*len(trees)/callers)%len(trees)])
					if err != nil {
						errs[c] = err
						return
					}
					moved.Add(r.Stats.PagesMoved)
				}
			}(c)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return fmt.Errorf("replay core: %w", err)
	}
	runtime.ReadMemStats(&m1)
	// A pass is the deck once per caller, side by side: its duration
	// over the deck's length is one call's time at that concurrency.
	layer["core.execute_ms"] = ms(took) / float64(n*len(texts))
	execs = float64(n * len(texts) * callers)
	layer["core.alloc_kb_per_exec"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / execs
	layer["core.mallocs_per_exec"] = float64(m1.Mallocs-m0.Mallocs) / execs
	layer["core.pages_moved_per_exec"] = float64(moved.Load()) / execs
	layer["server.exec_overhead_ms"] = layer["server.exec_ms"] - layer["core.execute_ms"]

	// relalg: the same queries on the serial reference executor, which
	// runs the kernels and nothing else.
	n, took, err = loop(ctx, func() error {
		for _, t := range trees {
			if _, err := query.ExecuteSerial(cat, t, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay serial: %w", err)
	}
	layer["relalg.serial_ms"] = ms(took) / float64(n*len(texts))
	layer["core.overhead_ratio"] = ratio(layer["core.execute_ms"], layer["relalg.serial_ms"])

	if err := e.kernelBench(ctx, layer); err != nil {
		return err
	}
	if err := e.codecBench(ctx, layer, trees); err != nil {
		return err
	}
	return e.storageBench(ctx, layer)
}

// kernelBench times the page kernels the engine's workers call, on the
// resident copies of r1..r3 (the same pages for every workload).
func (e *env) kernelBench(ctx context.Context, layer map[string]float64) error {
	r1, err := e.oracle.Get("r1")
	if err != nil {
		return err
	}
	outer, err := e.oracle.Get("r2")
	if err != nil {
		return err
	}
	inner, err := e.oracle.Get("r3")
	if err != nil {
		return err
	}
	sink := func([]byte) error { return nil }

	bound, err := pred.Compare{Attr: "val", Op: pred.LT, Const: relation.IntVal(100)}.Bind(r1.Schema())
	if err != nil {
		return err
	}
	rs := relalg.NewRestrictState(bound)
	n, took, err := loop(ctx, func() error {
		for _, pg := range r1.Pages() {
			if _, err := rs.RestrictPage(pg, sink); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay restrict kernel: %w", err)
	}
	layer["relalg.restrict_ns_tuple"] = float64(took.Nanoseconds()) / float64(n*r1.Cardinality())

	// 64 pages a side: the hash-table cache's default capacity, so the
	// probe loop never rebuilds a table.
	const side = 64
	cond, err := pred.Equi("k1", "k1").Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return err
	}
	innerPages, outerPages := inner.Pages()[:side], outer.Pages()[:side]
	tuplesIn := func(pages []*relation.Page) (t int) {
		for _, pg := range pages {
			t += pg.TupleCount()
		}
		return t
	}
	build := relalg.NewJoinState(cond, nil)
	n, took, err = loop(ctx, func() error {
		build.Reset()
		for _, pg := range innerPages {
			build.Build(pg)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay join build kernel: %w", err)
	}
	layer["relalg.join_build_ns_tuple"] = float64(took.Nanoseconds()) / float64(n*tuplesIn(innerPages))

	probe := relalg.NewJoinState(cond, nil)
	for _, pg := range innerPages {
		probe.Build(pg)
	}
	n, took, err = loop(ctx, func() error {
		for _, op := range outerPages {
			for _, ip := range innerPages {
				if _, err := probe.JoinPages(op, ip, sink); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay join probe kernel: %w", err)
	}
	layer["relalg.join_probe_ns_tuple"] = float64(took.Nanoseconds()) / float64(n*tuplesIn(outerPages)*side)
	return nil
}

// countingWriter counts what a result costs on the wire.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// codecBench times the page codec and the wire framing on r1's pages,
// and sizes the framing on the workload's own results.
func (e *env) codecBench(ctx context.Context, layer map[string]float64, trees []*query.Tree) error {
	r1, err := e.oracle.Get("r1")
	if err != nil {
		return err
	}
	pages := r1.Pages()
	blobs := make([][]byte, len(pages))
	n, took, err := loop(ctx, func() error {
		for i, pg := range pages {
			blobs[i] = pg.Marshal()
		}
		return nil
	})
	if err != nil {
		return err
	}
	perPass := float64(len(pages))
	layer["relation.marshal_ns_page"] = float64(took.Nanoseconds()) / (float64(n) * perPass)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, took, err = loop(ctx, func() error {
		for _, b := range blobs {
			if _, err := relation.UnmarshalPage(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay unmarshal: %w", err)
	}
	runtime.ReadMemStats(&m1)
	layer["relation.unmarshal_ns_page"] = float64(took.Nanoseconds()) / (float64(n) * perPass)
	layer["relation.decode_alloc_kb_page"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / (float64(n) * perPass)

	var framed bytes.Buffer
	frame := func(i int, blob []byte) *wire.ResultPage {
		return &wire.ResultPage{QueryID: 1, Seq: uint32(i) + 1, Page: blob}
	}
	n, took, err = loop(ctx, func() error {
		for i, b := range blobs {
			if err := wire.WriteVersion(io.Discard, frame(i, b), wire.Version); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay wire encode: %w", err)
	}
	layer["wire.encode_ns_page"] = float64(took.Nanoseconds()) / (float64(n) * perPass)
	for i, b := range blobs {
		if err := wire.WriteVersion(&framed, frame(i, b), wire.Version); err != nil {
			return err
		}
	}
	n, took, err = loop(ctx, func() error {
		rd := bytes.NewReader(framed.Bytes())
		for range blobs {
			if _, err := wire.ReadVersion(rd, wire.Version); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay wire decode: %w", err)
	}
	layer["wire.decode_ns_page"] = float64(took.Nanoseconds()) / (float64(n) * perPass)

	// Framing overhead on what this workload actually returns: every
	// frame of every op's answer, schema and Stats frame included,
	// against the tuple bytes it carries.
	var sent countingWriter
	var payload int64
	for _, t := range trees {
		rel, err := query.ExecuteSerial(e.oracle.Catalog(), t, 0)
		if err != nil {
			return fmt.Errorf("replay framing: %w", err)
		}
		// As the server streams it: the schema rides on the first frame,
		// and an empty result is that frame alone.
		frames := make([]*wire.ResultPage, max(1, rel.NumPages()))
		for i := range frames {
			frames[i] = &wire.ResultPage{QueryID: 1, Seq: uint32(i), Last: i == len(frames)-1}
		}
		for i, pg := range rel.Pages() {
			frames[i].Page = pg.Marshal()
		}
		frames[0].Name, frames[0].PageSize = rel.Name(), uint32(rel.PageSize())
		for i := 0; i < rel.Schema().NumAttrs(); i++ {
			a := rel.Schema().Attr(i)
			frames[0].Schema = append(frames[0].Schema, wire.SchemaAttr{Name: a.Name, Type: uint8(a.Type), Width: uint32(a.Width)})
		}
		for _, f := range frames {
			if err := wire.WriteVersion(&sent, f, wire.Version); err != nil {
				return err
			}
		}
		if err := wire.WriteVersion(&sent, &wire.Stats{QueryID: 1, Engine: "core"}, wire.Version); err != nil {
			return err
		}
		payload += int64(rel.Cardinality() * rel.Schema().TupleLen())
	}
	layer["wire.overhead_bytes_ratio"] = ratio(float64(sent.n), float64(payload))
	return nil
}

// storageBench measures what only a data directory has: space on disk
// against user bytes, and a forced checkpoint after one writer pass.
func (e *env) storageBench(ctx context.Context, layer map[string]float64) error {
	layer["heap.file_bytes_per_user_byte"] = 0
	layer["wal.checkpoint_ms"] = 0
	if !e.sp.durable {
		return nil
	}
	var onDisk, user int64
	for _, name := range e.db.Names() {
		size, err := e.wal.Heap().FileSize(name)
		if err != nil {
			return fmt.Errorf("replay heap size: %w", err)
		}
		rel, err := e.db.Get(name)
		if err != nil {
			return err
		}
		onDisk += size
		user += int64(rel.Cardinality() * rel.Schema().TupleLen())
	}
	layer["heap.file_bytes_per_user_byte"] = ratio(float64(onDisk), float64(user))
	if e.sp.name != "ingest" {
		return nil // nothing is written, so a checkpoint has nothing to do
	}
	var took []float64
	for i := 0; i < 3; i++ {
		if err := e.writeOps(writerPass()); err != nil {
			return err
		}
		start := time.Now()
		if err := e.srv.Checkpoint(ctx); err != nil {
			return fmt.Errorf("replay checkpoint: %w", err)
		}
		took = append(took, ms(time.Since(start)))
	}
	layer["wal.checkpoint_ms"] = median(took)
	return nil
}

// writeOps sends verified writes through session 0 outside any round.
func (e *env) writeOps(ops []op) error {
	for _, o := range ops {
		r, err := e.sess[0].query(o.text, false)
		if err != nil {
			return fmt.Errorf("%s: %w", o.text, err)
		}
		if err := e.check(o, r); err != nil {
			return fmt.Errorf("%s: %w", o.text, err)
		}
	}
	return nil
}

const (
	// crashTail is how many appends an ingest run acknowledges after
	// its last round, for recovery to bring back.
	crashTail = 10
	// reopens is how many times a traced run recovers the directory.
	reopens = 5
	// warmPages is how many pages the page-hit loop keeps resident:
	// within the smallest pool any workload uses.
	warmPages = 32
)

// crashCheck ends a durable workload the hard way: the server stops
// and the log closes without a checkpoint, so dirty buffer-pool frames
// are dropped, and the directory is reopened. stage_a must then hold,
// as a multiset, exactly the acknowledged writes. A traced run reopens
// several times and measures recovery and the buffer pool cold and
// warm; the directory is not modified by a recovery that replays only
// appends, so every reopen does the same work.
func (e *env) crashCheck(ctx context.Context, traced bool, res *outcome) error {
	if traced {
		res.layer["wal.recovery_ms"] = 0
		res.layer["wal.replayed_records"] = 0
		res.layer["heap.page_fault_us"] = 0
		res.layer["heap.page_hit_ns"] = 0
	}
	if !e.sp.durable || (e.sp.name != "ingest" && !traced) {
		return nil
	}
	times := 1
	if traced {
		times = reopens
	}
	if e.sp.name == "ingest" {
		// Rounds end on a trim, which would leave nothing to recover;
		// end on half a pass of acknowledged appends instead. A traced
		// run checkpoints first so the replayed count is exact.
		if traced {
			if err := e.srv.Checkpoint(ctx); err != nil {
				return fmt.Errorf("crash check: checkpoint: %w", err)
			}
		}
		if err := e.writeOps(writerPass()[:crashTail]); err != nil {
			return fmt.Errorf("crash check: %w", err)
		}
	}
	if err := e.stopServing(); err != nil {
		return fmt.Errorf("crash check: stopping the server: %w", err)
	}
	if err := e.closeLog(); err != nil {
		return fmt.Errorf("crash check: closing the log: %w", err)
	}

	var recovery []float64
	for i := 0; i < times; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		opts := e.walOptions()
		opts.Obs = nil
		l, db, rv, err := dfdbm.OpenWAL(e.dataDir, opts)
		if err != nil {
			return fmt.Errorf("crash check: reopen: %w", err)
		}
		err = e.checkRecovered(db)
		if err == nil && traced && i == 0 {
			err = poolBench(db, res.layer)
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("crash check: %w", err)
		}
		recovery = append(recovery, ms(rv.Elapsed))
		if traced {
			res.layer["wal.replayed_records"] = float64(rv.Replayed)
		}
	}
	if traced {
		res.layer["wal.recovery_ms"] = median(recovery)
	}
	return nil
}

// checkRecovered compares the recovered stage_a with the acknowledged
// writes: e.acked copies of what one append adds.
func (e *env) checkRecovered(db *dfdbm.DB) error {
	if db == nil {
		return fmt.Errorf("reopened directory recovered no database")
	}
	if e.sp.name != "ingest" {
		return nil
	}
	stage, err := db.Get(stageRel)
	if err != nil {
		return err
	}
	got := stage.SortedKeys()
	if len(got) != e.acked*len(e.source) {
		return fmt.Errorf("recovered %s holds %d tuples, %d acknowledged appends make %d",
			stageRel, len(got), e.acked, e.acked*len(e.source))
	}
	for i, key := range got {
		if key != e.source[i/e.acked] {
			return fmt.Errorf("recovered %s differs from the acknowledged writes at sorted tuple %d", stageRel, i)
		}
	}
	return nil
}

// poolBench times Relation.CopyPage on a freshly opened directory:
// every page of r1 once (each a buffer-pool miss served from the heap
// file), then a resident prefix again and again (each a hit).
func poolBench(db *dfdbm.DB, layer map[string]float64) error {
	r1, err := db.Get("r1")
	if err != nil {
		return err
	}
	n := r1.NumPages()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := r1.CopyPage(i); err != nil {
			return err
		}
	}
	layer["heap.page_fault_us"] = float64(time.Since(start).Microseconds()) / float64(n)

	for i := 0; i < warmPages; i++ {
		if _, err := r1.CopyPage(i); err != nil {
			return err
		}
	}
	const reps = 200
	start = time.Now()
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < warmPages; i++ {
			if _, err := r1.CopyPage(i); err != nil {
				return err
			}
		}
	}
	layer["heap.page_hit_ns"] = float64(time.Since(start).Nanoseconds()) / (reps * warmPages)
	return nil
}
