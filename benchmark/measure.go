package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dfdbm/internal/obs"
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// home is the benchmark's own directory; data directories and
	// span files are written under home/out.
	home string
	// started is when the process (or, under -agree, the run) began.
	started time.Time
}

// outcome is one run's result.
type outcome struct {
	attempted int
	failed    int
	firstErr  error
	// slowness is the run's host-speed reading; raw holds the
	// end-to-end metrics as measured and e2e at the reference speed.
	slowness float64
	raw      map[string]float64
	e2e      map[string]float64
	// layer is set by traced runs only.
	layer map[string]float64
	// samples is how many timings the latency percentiles pool.
	samples int
}

func (o *outcome) correct() bool { return o.failed == 0 && o.firstErr == nil }

// absorb moves the sessions' op counts and first failure into o.
func (o *outcome) absorb(logs []*sessionLog) {
	for _, l := range logs {
		o.attempted += l.attempted
		o.failed += l.failed
		if o.firstErr == nil {
			o.firstErr = l.firstErr
		}
		l.attempted, l.failed = 0, 0
	}
}

// counters is the part of the server's metrics registry the per-layer
// metrics read, taken while no query is running.
type counters struct {
	hits, misses, evictions, writebacks    int64
	fsyncs, walBytes, checkpoints, durable int64
	poolBusyUS, runnerBusyUS               float64
	appendHist, fsyncHist                  obs.HistogramSnapshot
}

func (e *env) counters() counters {
	integral := func(name string) float64 {
		if tl := e.reg.Timeline(name); tl != nil {
			return tl.Integral()
		}
		return 0
	}
	return counters{
		hits:         e.reg.Counter("bufpool.hits"),
		misses:       e.reg.Counter("bufpool.misses"),
		evictions:    e.reg.Counter("bufpool.evictions"),
		writebacks:   e.reg.Counter("bufpool.writebacks"),
		fsyncs:       e.reg.Counter("wal.fsyncs"),
		walBytes:     e.reg.Counter("wal.bytes"),
		checkpoints:  e.reg.Counter("wal.checkpoints"),
		durable:      e.reg.Counter("server.durable_writes"),
		poolBusyUS:   integral("bufpool.busy_us"),
		runnerBusyUS: integral("sched.runner_busy_us"),
		appendHist:   e.reg.FindHistogram("wal.append_ns").Snapshot(),
		fsyncHist:    e.reg.FindHistogram("wal.fsync_ns").Snapshot(),
	}
}

// readerCalPasses is how many passes of the ingest reader's deck
// (8 reads each) calibrate its allocation per op.
const readerCalPasses = 10

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOnce sets the system up, measures it and tears it down. Progress
// goes to logw; the result is returned, never printed.
func runOnce(ctx context.Context, opt options, logw io.Writer) (*outcome, error) {
	sp, err := specFor(opt.workload)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(opt.home, "out")
	e, err := setUp(ctx, sp, out)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close() // error paths; the success path closes and checks below

	res := &outcome{}
	d := newDriver(e, e.sess, opt.seed, opt.started)
	d.round(ctx, limit{passes: sp.warmPasses}, false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var readerAlloc float64
	if sp.name == "ingest" {
		readerAlloc = d.readerAlloc(ctx, readerCalPasses)
	}
	// Warm-up ops are verified like any other but not timed.
	res.absorb(d.logs)
	for _, l := range d.logs {
		l.samples = l.samples[:0]
	}
	setup := time.Since(opt.started)

	// The measured phase: a reading, then ten times a round and a reading.
	var readings []hostReading
	read := func() error {
		r, err := e.host.read()
		readings = append(readings, r)
		return err
	}
	if err := read(); err != nil {
		return nil, err
	}
	c0 := e.counters()
	var stats []roundStat
	roundLen := time.Duration(opt.seconds / rounds * float64(time.Second))
	for i := 0; i < rounds; i++ {
		// A traced run alternates traced and untraced rounds, so the two
		// halves see the same host and their ratio is the tracing cost.
		stats = append(stats, d.round(ctx, limit{d: roundLen}, opt.trace && i%2 == 0))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := read(); err != nil {
			return nil, err
		}
	}
	c1 := e.counters()
	res.slowness = hostSlowness(readings)

	res.absorb(d.logs)
	var primary, ttfp, reads, free []float64
	for _, l := range d.logs {
		for _, s := range l.samples {
			switch s.class {
			case classPrimary:
				primary = append(primary, ms(s.rtt))
				ttfp = append(ttfp, ms(s.ttfp))
			case classReadConflict:
				reads = append(reads, ms(s.rtt))
			case classReadFree:
				free = append(free, ms(s.rtt))
			}
		}
	}
	if len(primary) == 0 {
		return nil, fmt.Errorf("no op of %s completed in %v", sp.name, opt.seconds)
	}
	sort.Float64s(primary)
	sort.Float64s(ttfp)
	sort.Float64s(reads)
	sort.Float64s(free)
	res.samples = len(primary)

	var total roundStat
	for _, st := range stats {
		total.wall += st.wall
		total.cpu += st.cpu
		total.alloc += st.alloc
		total.gcs += st.gcs
		total.ops += st.ops
		total.allOps += st.allOps
	}
	// Throughput counts the ops the workload is about (on ingest, the
	// writer's). Processor time belongs to the whole process, so it is
	// shared out over every session's ops. Allocation is per op the
	// workload is about: on ingest the reader's share, which moves with
	// its pace relative to the writer's, is taken out at the rate
	// measured during set-up (elsewhere there is no such share).
	ops, allOps := float64(total.ops), float64(total.allOps)
	alloc := float64(total.alloc) - readerAlloc*float64(len(reads)+len(free))
	res.raw = map[string]float64{
		"setup_s":             setup.Seconds(),
		"throughput_ops_s":    ops / total.wall.Seconds(),
		"latency_p50_ms":      percentile(primary, 0.50),
		"latency_p95_ms":      percentile(primary, 0.95),
		"ttfp_p50_ms":         percentile(ttfp, 0.50),
		"cpu_ms_per_op":       ms(total.cpu) / allOps,
		"alloc_kb_per_op":     alloc / 1024 / ops,
		"read_latency_p50_ms": percentile(reads, 0.50),
	}
	if sp.name != "ingest" {
		// Every op of the read-only workloads is a read.
		res.raw["read_latency_p50_ms"] = res.raw["latency_p50_ms"]
	}
	res.e2e = map[string]float64{}
	for _, m := range endToEnd {
		res.e2e[m.name] = referenced(m.kind, res.raw[m.name], res.slowness)
	}
	var walks, pings []float64
	for _, r := range readings {
		walks, pings = append(walks, ms(r.walk)), append(pings, ms(r.ping))
	}
	fmt.Fprintf(logw, "# %s seed %d: %d ops in %d rounds, %.2f s measured, host_slowness %.4f (walk %.1f ms, ping %.1f ms)\n",
		sp.name, opt.seed, total.ops, rounds, total.wall.Seconds(), res.slowness, median(walks), median(pings))

	if opt.trace {
		res.layer = map[string]float64{
			"server.latency_p99_ms":       percentile(primary, 0.99),
			"server.free_read_p50_ms":     percentile(free, 0.50),
			"server.peak_heap_mb":         float64(d.peakHeap) / (1 << 20),
			"server.gc_cycles_per_kop":    float64(total.gcs) / ops * 1000,
			"bench.host_slowness":         res.slowness,
			"bench.raw_throughput_ops_s":  res.raw["throughput_ops_s"],
			"bench.raw_latency_p50_ms":    res.raw["latency_p50_ms"],
			"obs.traced_throughput_ratio": tracedRatio(stats),
		}
		d.spanMetrics(res.layer, stats)
		var userBytes float64
		if sp.name == "ingest" {
			userBytes = float64(len(primary)) * float64(e.perAppend) * tupleBytes
		}
		counterMetrics(res.layer, c0, c1, total, userBytes)
		if err := e.layerBench(ctx, d, opt, res); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		var logs [][]span
		for _, l := range d.logs {
			logs = append(logs, l.spans)
		}
		path := filepath.Join(out, "spans-"+sp.name+".jsonl")
		if err := writeSpans(path, logs...); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(logw, "# spans written to %s\n", path)
	}

	if err := e.crashCheck(ctx, opt.trace, res); err != nil {
		return nil, err
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return res, nil
}

// tracedRatio is the throughput of a traced run's traced rounds over
// that of its untraced rounds.
func tracedRatio(stats []roundStat) float64 {
	var on, off roundStat
	for _, st := range stats {
		if st.traced {
			on.ops += st.ops
			on.wall += st.wall
		} else {
			off.ops += st.ops
			off.wall += st.wall
		}
	}
	return ratio(float64(on.ops)/on.wall.Seconds(), float64(off.ops)/off.wall.Seconds())
}

// spanMetrics derives the per-layer metrics that come from spans: the
// server's four stages, what the client and the network add, and how
// much of a round trip no span accounts for. server.* is over the ops
// that count toward throughput; sched.* is over every op, since a
// conflict delays whichever side arrives second.
func (d *driver) spanMetrics(layer map[string]float64, stats []roundStat) {
	var n, all float64
	var exec, stream, net, rtt, ttfp, gap, bytes float64
	var admit, dispatch, deferred float64
	for _, l := range d.logs {
		eachOp(l.spans, func(t opTrace) {
			all++
			admit += float64(t.child(spanAdmitWait).dur())
			dispatch += float64(t.child(spanDispatch).dur())
			if t.root.Deferred {
				deferred++
			}
			if t.root.Class != classPrimary && t.root.Class != classTrim {
				return
			}
			n++
			stages := t.child(spanAdmitWait).dur() + t.child(spanDispatch).dur() +
				t.child(spanExec).dur() + t.child(spanStream).dur()
			exec += float64(t.child(spanExec).dur())
			stream += float64(t.child(spanStream).dur())
			net += float64(t.root.dur() - stages)
			rtt += float64(t.root.dur())
			ttfp += float64(t.root.TTFP)
			gap += float64(selfTime(t.root, t.kids))
			bytes += float64(t.root.Bytes)
		})
	}
	var wall time.Duration
	for _, st := range stats {
		if st.traced {
			wall += st.wall
		}
	}
	const nsPerMs = 1e6
	layer["server.exec_ms"] = ratio(exec, n) / nsPerMs
	layer["server.stream_ms"] = ratio(stream, n) / nsPerMs
	layer["server.client_net_ms"] = ratio(net, n) / nsPerMs
	layer["server.result_mb_s"] = ratio(bytes/1e6, wall.Seconds())
	layer["server.ttfp_share"] = ratio(ttfp, rtt)
	layer["sched.admit_wait_ms"] = ratio(admit, all) / nsPerMs
	layer["sched.dispatch_ms"] = ratio(dispatch, all) / nsPerMs
	layer["sched.deferred_ratio"] = ratio(deferred, all)
	layer["bench.span_gap_ratio"] = ratio(gap, rtt)
}

// counterMetrics derives the per-layer metrics that come from the
// server's own registry, as differences over the measured phase.
// userBytes is the tuple payload the measured appends added.
func counterMetrics(layer map[string]float64, c0, c1 counters, total roundStat, userBytes float64) {
	ops := float64(total.ops)
	wallUS := float64(total.wall.Microseconds())
	hits, misses := float64(c1.hits-c0.hits), float64(c1.misses-c0.misses)
	appends := c1.appendHist.Sub(c0.appendHist)
	fsyncs := c1.fsyncHist.Sub(c0.fsyncHist)

	layer["heap.hit_ratio"] = ratio(hits, hits+misses)
	layer["heap.misses_per_op"] = misses / ops
	layer["heap.evictions_per_op"] = float64(c1.evictions-c0.evictions) / ops
	layer["heap.writebacks_per_op"] = float64(c1.writebacks-c0.writebacks) / ops
	layer["heap.busy_share"] = (c1.poolBusyUS - c0.poolBusyUS) / wallUS
	layer["sched.runner_utilization"] = (c1.runnerBusyUS - c0.runnerBusyUS) / (wallUS * serverRunners)
	layer["wal.append_ms"] = ratio(float64(appends.Sum), float64(appends.Count)) / 1e6
	layer["wal.fsync_ms"] = ratio(float64(fsyncs.Sum), float64(fsyncs.Count)) / 1e6
	layer["wal.fsyncs_per_write"] = ratio(float64(c1.fsyncs-c0.fsyncs), float64(c1.durable-c0.durable))
	layer["wal.checkpoints_per_kop"] = float64(c1.checkpoints-c0.checkpoints) / ops * 1000
	layer["wal.bytes_per_user_byte"] = ratio(float64(c1.walBytes-c0.walBytes), userBytes)
}
