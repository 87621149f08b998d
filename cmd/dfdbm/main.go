// Command dfdbm explores the reproduction from the shell: it generates
// the paper's benchmark database in memory and runs queries on the
// data-flow engine or on the simulated machines.
//
// Usage:
//
//	dfdbm [flags] info
//	dfdbm [flags] run <query> [-g page|relation|tuple] [-workers N]
//	dfdbm [flags] bench
//	dfdbm [flags] machine [queries...]
//	dfdbm [flags] direct [-procs N] [-strategy page|relation]
//	dfdbm [flags] serve [-addr A] [-data-dir DIR] [-fsync commit|none] [-max-sessions N] [-queue-depth N] [-runners N] [-max-inflight N] [-drain-timeout D]
//	dfdbm client [-addr A] [-priority high|normal|low] '<query>' ...
//	dfdbm wal <inspect|verify> -data-dir DIR [-records]
//	dfdbm top [-addr A] [-interval D] [-recent N] [-once] [-json]
//	dfdbm loadgen -profile FILE [-time-scale F] [-autoscale] [-out DIR] [-http A]
//	dfdbm [flags] save DIR
//
// loadgen replays a declarative load profile — phases with arrival
// patterns (steady, ramp, diurnal, burst), per-phase query mixes and
// SLOs, and scheduled disturbances (maintenance checkpoint, node
// slowdown, bulk append) — against a self-hosted or remote server,
// compressed by the profile's time scale so a simulated day fits in a
// minute of wall clock. It writes a per-interval timeline (offered vs
// completed QPS, per-lane latency quantiles, shed counts, scheduler
// gauges) as CSV/JSON, serves it live at /loadgen under -http, and
// exits nonzero when an SLO is violated. With -autoscale the
// self-hosted server's runner pool scales between the profile's
// bounds instead of staying fixed.
//
// serve -data-dir makes the write path durable: every append/delete is
// redo-logged and fsynced (per -fsync) before it is acknowledged, every
// relation is checkpointed into its heap file, and a restart after
// kill -9 recovers exactly the acknowledged writes. `dfdbm wal`
// inspects or verifies such a directory offline.
//
// Shared flags (before the subcommand): -scale, -seed, -pagesize, and
// -db DIR, which loads the database from a data directory instead of
// generating it. `save DIR` writes such a directory, and `serve
// -data-dir DIR` serves it.
//
// serve exposes the database over TCP: sessions speak the
// length-prefixed internal/wire protocol (dfdbm client is the matching
// client), each query is admitted by the multi-query scheduler —
// non-conflicting read/write sets run concurrently, conflicting ones
// queue, overload is shed — and SIGTERM drains gracefully: in-flight
// queries finish streaming, new work is refused, and the process exits
// within -drain-timeout.
//
// The run, machine, and direct subcommands accept observability flags:
// -trace-out FILE with -trace-format text|jsonl|chrome writes the
// structured event trace, and -metrics-out FILE writes the metrics
// registry (counters, gauges, and time-bucketed bandwidth timelines) as
// JSONL, with -metrics-bucket setting the timeline bucket width.
// -profile prints a per-node EXPLAIN ANALYZE profile and resource
// saturation report after the run (-profile-out FILE writes it as
// JSON), and -http ADDR serves live introspection — Prometheus-format
// /metrics, the active span tree at /spans, raw timelines at
// /timeline, and /debug/pprof — while the simulation runs.
// `dfdbm explain -analyze '<query>'` executes the query on the
// simulated ring machine and prints the same profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"dfdbm"
	"dfdbm/internal/catalog"
	"dfdbm/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 0.1, "database scale (1.0 = the paper's 5.5 MB)")
	seed := flag.Int64("seed", 42, "generator seed")
	pageSize := flag.Int("pagesize", 2048, "page size in bytes")
	dbDir := flag.String("db", "", "load the database from this data directory (written by save or serve -data-dir) instead of generating it")
	flag.Parse()

	if flag.NArg() < 1 {
		usage()
	}
	var db *dfdbm.DB
	var queries []*dfdbm.Query
	var err error
	if *dbDir != "" {
		db, err = dfdbm.OpenDB(*dbDir)
		check(err)
		// The benchmark queries still bind if the directory holds a
		// paper database; otherwise subcommands needing them will
		// report it.
		for _, text := range workload.QueryTexts() {
			if q, err := db.Parse(text); err == nil {
				queries = append(queries, q)
			}
		}
	} else {
		db, queries, err = dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{
			Seed: *seed, Scale: *scale, PageSize: *pageSize,
		})
		check(err)
	}

	switch flag.Arg(0) {
	case "info":
		cmdInfo(db)
	case "run":
		cmdRun(db, flag.Args()[1:])
	case "bench":
		cmdBench(db, queries, flag.Args()[1:], *scale, *seed, *pageSize)
	case "machine":
		cmdMachine(db, queries, flag.Args()[1:], *pageSize)
	case "direct":
		cmdDirect(db, queries, flag.Args()[1:])
	case "serve":
		cmdServe(db, flag.Args()[1:])
	case "client":
		cmdClient(flag.Args()[1:])
	case "wal":
		cmdWal(flag.Args()[1:])
	case "top":
		cmdTop(flag.Args()[1:])
	case "loadgen":
		cmdLoadgen(db, flag.Args()[1:])
	case "explain":
		cmdExplain(db, flag.Args()[1:], *pageSize)
	case "export":
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: dfdbm export <relation>")
			os.Exit(2)
		}
		check(db.ExportCSV(flag.Arg(1), os.Stdout))
	case "save":
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: dfdbm save <dir>")
			os.Exit(2)
		}
		check(db.Save(flag.Arg(1)))
		fmt.Printf("saved %d relations (%d bytes of pages) to %s\n",
			len(db.Names()), db.TotalBytes(), flag.Arg(1))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dfdbm [-scale S -seed N -pagesize B -db DIR] info|run|bench|machine|direct|serve|client|wal|top|loadgen|save|export|explain ...")
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfdbm:", err)
		os.Exit(1)
	}
}

// cmdExplain prints the static plan; with -analyze it also executes
// the query on the simulated ring machine with spans enabled and
// prints the per-node EXPLAIN ANALYZE profile and saturation report.
func cmdExplain(db *dfdbm.DB, args []string, pageSize int) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	analyze := fs.Bool("analyze", false, "execute on the simulated ring machine and print the per-node profile")
	ips := fs.Int("ips", 16, "instruction processors (with -analyze)")
	check(fs.Parse(args))
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dfdbm explain [-analyze [-ips N]] '<query>'")
		os.Exit(2)
	}
	q, err := db.Parse(fs.Arg(0))
	check(err)
	fmt.Print(dfdbm.Explain(q))
	if !*analyze {
		return
	}
	prof, sat, err := analyzeOnMachine(db, pageSize, *ips, q)
	check(err)
	fmt.Println()
	check(prof.Text(os.Stdout))
	check(sat.Text(os.Stdout))
}

// analyzeOnMachine runs qs on a 16-IC ring machine with ips processors,
// spans on and metrics in 1 ms buckets, and returns the run's EXPLAIN
// ANALYZE profile and saturation report: `explain -analyze` prints them,
// `bench -profile-out` writes them as JSON.
func analyzeOnMachine(db *dfdbm.DB, pageSize, ips int, qs ...*dfdbm.Query) (*dfdbm.Profile, *dfdbm.SaturationReport, error) {
	hw := dfdbm.DefaultHW()
	hw.PageSize = pageSize
	o := dfdbm.NewObserver(nil, dfdbm.NewMetrics(time.Millisecond))
	o.EnableSpans()
	m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw, ICs: 16, IPs: ips, Obs: o})
	if err != nil {
		return nil, nil, err
	}
	for _, q := range qs {
		if err := m.Submit(q); err != nil {
			return nil, nil, err
		}
	}
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	return dfdbm.BuildProfile(o.Spans().Snapshot(), res.Elapsed), dfdbm.Saturation(o.Registry(), res.Elapsed, m.Resources()), nil
}

func cmdInfo(db *dfdbm.DB) {
	fmt.Printf("%-8s %10s %10s %10s\n", "relation", "tuples", "pages", "bytes")
	totalT, totalB := 0, 0
	for _, name := range db.Names() {
		r, err := db.Get(name)
		check(err)
		fmt.Printf("%-8s %10d %10d %10d\n", name, r.Cardinality(), r.NumPages(), r.ByteSize())
		totalT += r.Cardinality()
		totalB += r.ByteSize()
	}
	fmt.Printf("%-8s %10d %21d\n", "total", totalT, totalB)
}

func cmdRun(db *dfdbm.DB, args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	gran := fs.String("g", "page", "granularity: page, relation, or tuple")
	workers := fs.Int("workers", 4, "instruction processors")
	timeout := fs.Duration("timeout", 0, "abort the query after this long (0 = no limit)")
	of := addObsFlags(fs)
	check(fs.Parse(args))
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dfdbm run [-g page|relation|tuple] [-workers N] [-timeout D] '<query>'")
		os.Exit(2)
	}
	q, err := db.Parse(fs.Arg(0))
	check(err)
	g, err := parseGranularity(*gran)
	check(err)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	o, sess := of.build()
	res, err := db.ExecuteContext(ctx, q, dfdbm.EngineOptions{Granularity: g, Workers: *workers, Obs: o})
	sess.finish()
	check(err)
	sess.report(res.Stats.Elapsed, []dfdbm.ResourceSpec{
		{Name: "worker pool", Timeline: "core.worker_busy_us", Servers: *workers},
	})
	fmt.Printf("%d tuples in %v at %s granularity\n",
		res.Relation.Cardinality(), res.Stats.Elapsed.Round(time.Microsecond), g)
	shown := 0
	_ = res.Relation.Each(func(t dfdbm.Tuple) bool {
		fmt.Println(" ", t)
		shown++
		return shown < 10
	})
	if res.Relation.Cardinality() > shown {
		fmt.Printf("  ... and %d more\n", res.Relation.Cardinality()-shown)
	}
	s := res.Stats
	fmt.Printf("packets=%d dispatches=%d arbitration=%dB results=%d pages=%d\n",
		s.InstructionPackets, s.Dispatches, s.ArbitrationBytes, s.ResultPackets, s.PagesMoved)
}

func cmdBench(db *dfdbm.DB, queries []*dfdbm.Query, args []string, scale float64, seed int64, pageSize int) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonOut := fs.String("json", "", "run the measured harness and write machine-readable results to this file (e.g. BENCH_machine.json)")
	compareWith := fs.String("compare", "", "with -json: compare the fresh results against this committed report and fail on >25% throughput regression")
	profileOut := fs.String("profile-out", "", "also run the ring-machine workload with spans enabled and write the EXPLAIN/saturation profile JSON here (e.g. PROFILE_machine.json)")
	only := fs.String("only", "", "comma-separated benchmark name prefixes to run and compare (default: all)")
	check(fs.Parse(args))
	if *compareWith != "" && *jsonOut == "" {
		check(fmt.Errorf("bench: -compare needs -json (the fresh results to compare)"))
	}
	if *jsonOut != "" {
		env := &benchEnv{db: db, queries: queries, pageSize: pageSize}
		check(benchJSON(env, scale, seed, *jsonOut, *compareWith, parseBenchFilter(*only)))
	}
	if *profileOut != "" {
		// The ring-machine multi-query workload: paper queries 1, 3, 6.
		prof, sat, err := analyzeOnMachine(db, pageSize, 16, queries[0], queries[2], queries[5])
		check(err)
		check(catalog.WriteFileAtomic(*profileOut, func(w io.Writer) error { return prof.JSON(w, sat) }))
		fmt.Printf("bench: wrote %s (ring-machine explain/saturation profile)\n", *profileOut)
	}
	if *jsonOut != "" || *profileOut != "" {
		return
	}
	fmt.Printf("%-6s %10s | %-14s %-14s %-14s\n", "query", "tuples", "relation", "page", "tuple")
	for i, q := range queries {
		fmt.Printf("q%-5d ", i+1)
		first := true
		for _, g := range []dfdbm.Granularity{dfdbm.RelationLevel, dfdbm.PageLevel, dfdbm.TupleLevel} {
			res, err := db.Execute(q, dfdbm.EngineOptions{Granularity: g, Workers: 4, PageSize: pageSize})
			check(err)
			if first {
				fmt.Printf("%10d | ", res.Relation.Cardinality())
				first = false
			}
			fmt.Printf("%-14s ", fmt.Sprintf("%dB", res.Stats.ArbitrationBytes))
		}
		fmt.Println()
	}
	fmt.Println("(cells are arbitration-network bytes per granularity)")
}

func cmdMachine(db *dfdbm.DB, queries []*dfdbm.Query, args []string, pageSize int) {
	fs := flag.NewFlagSet("machine", flag.ExitOnError)
	ips := fs.Int("ips", 16, "instruction processors in the pool")
	hashTiming := fs.Bool("hash-timing", false, "charge equi-joins at the hash kernel's O(n+m) cost instead of the paper's nested-loops n*m")
	failIPs := fs.Int("fail-ips", 0, "crash this many IPs (0..n-1) during the run")
	failAt := fs.Duration("fail-at", 5*time.Millisecond, "virtual time of the first crash")
	failStep := fs.Duration("fail-step", 1*time.Millisecond, "virtual-time stagger between crashes")
	dropOuter := fs.Float64("drop-outer", 0, "drop probability for outer-ring IC<->IP packets")
	dropInner := fs.Float64("drop-inner", 0, "drop probability for inner-ring control packets")
	dup := fs.Float64("dup", 0, "duplication probability, all packet classes")
	faultSeed := fs.Int64("fault-seed", 1, "fault plan seed")
	watchdog := fs.Duration("watchdog", 0, "IC watchdog timeout (0 = default)")
	retryBudget := fs.Int("retry-budget", 0, "re-dispatch budget per work unit (0 = default)")
	of := addObsFlags(fs)
	check(fs.Parse(args))
	hw := dfdbm.DefaultHW()
	hw.PageSize = pageSize
	cfg := dfdbm.MachineConfig{HW: hw, ICs: 16, IPs: *ips,
		HashJoinTiming:  *hashTiming,
		WatchdogTimeout: *watchdog, RetryBudget: *retryBudget}
	if *failIPs > 0 || *dropOuter > 0 || *dropInner > 0 || *dup > 0 {
		fc := dfdbm.FaultConfig{Seed: *faultSeed,
			Crashes: dfdbm.CrashSpread(*failIPs, *failAt, *failStep)}
		if *dropOuter > 0 {
			fc.Drop = map[dfdbm.FaultClass]float64{
				dfdbm.FaultClassInstruction: *dropOuter,
				dfdbm.FaultClassBroadcast:   *dropOuter,
				dfdbm.FaultClassControl:     *dropOuter,
				dfdbm.FaultClassCompletion:  *dropOuter,
				dfdbm.FaultClassResult:      *dropOuter,
			}
		}
		if *dropInner > 0 {
			if fc.Drop == nil {
				fc.Drop = map[dfdbm.FaultClass]float64{}
			}
			fc.Drop[dfdbm.FaultClassInner] = *dropInner
		}
		if *dup > 0 {
			fc.Dup = dfdbm.UniformDrop(*dup)
		}
		cfg.Fault = dfdbm.NewFaultPlan(fc)
	}
	o, sess := of.build()
	cfg.Obs = o
	m, err := dfdbm.NewMachine(db, cfg)
	check(err)
	picked := fs.Args()
	if len(picked) == 0 {
		picked = []string{"1", "3", "6"}
	}
	for _, a := range picked {
		if n, err := strconv.Atoi(a); err == nil {
			if n < 1 || n > len(queries) {
				check(fmt.Errorf("bad query number %q (1-%d)", a, len(queries)))
			}
			check(m.Submit(queries[n-1]))
			continue
		}
		q, err := db.Parse(a)
		check(err)
		check(m.Submit(q))
	}
	res, err := m.Run()
	sess.finish()
	check(err)
	sess.report(res.Elapsed, m.Resources())
	for _, qr := range res.PerQuery {
		fmt.Printf("query %d: %d tuples, started %v, finished %v\n",
			qr.QueryID+1, qr.Relation.Cardinality(), qr.Started, qr.Finished)
	}
	s := res.Stats
	fmt.Printf("makespan %v; outer ring %.2f Mbps (%d packets, %d broadcasts); IP utilization %.1f%%\n",
		res.Elapsed, res.OuterRingMbps(), s.OuterRingPackets, s.Broadcasts, 100*res.IPUtilization)
	if cfg.Fault != nil {
		fmt.Printf("faults: %d injected (%d crashes, %d drops, %d dups); %d IPs failed, %d watchdog timeouts, %d re-dispatches, %d recovered units, %d retransmits\n",
			s.FaultsInjected, s.IPsCrashed, s.PacketsDropped, s.PacketsDuplicated,
			s.IPsFailed, s.WatchdogTimeouts, s.Redispatches, s.RecoveredPages, s.Retransmits)
	}
}

func cmdDirect(db *dfdbm.DB, queries []*dfdbm.Query, args []string) {
	fs := flag.NewFlagSet("direct", flag.ExitOnError)
	procs := fs.Int("procs", 16, "instruction processors")
	strat := fs.String("strategy", "page", "page or relation")
	cacheFault := fs.Float64("cache-fault", 0, "transient cache-frame read-fault probability")
	faultSeed := fs.Int64("fault-seed", 1, "fault plan seed")
	of := addObsFlags(fs)
	check(fs.Parse(args))
	g, err := parseGranularity(*strat)
	check(err)

	profiles, err := dfdbm.ProfileQueries(db, queries, dfdbm.DefaultHW().PageSize)
	check(err)
	o, sess := of.build()
	dcfg := dfdbm.DirectConfig{Processors: *procs, Strategy: g, Obs: o}
	if *cacheFault > 0 {
		dcfg.Fault = dfdbm.NewFaultPlan(dfdbm.FaultConfig{Seed: *faultSeed, CacheReadFault: *cacheFault})
	}
	rep, err := dfdbm.SimulateDIRECT(dcfg, profiles)
	sess.finish()
	check(err)
	sess.report(rep.Elapsed, dfdbm.DirectResources(dcfg))
	fmt.Printf("DIRECT with %d processors, %s-level granularity:\n", *procs, g)
	fmt.Printf("  benchmark execution time : %v\n", rep.Elapsed)
	fmt.Printf("  IP<->cache bandwidth     : %.2f Mbps\n", rep.ProcCacheMbps())
	fmt.Printf("  cache<->disk bandwidth   : %.2f Mbps\n", rep.CacheDiskMbps())
	fmt.Printf("  control bandwidth        : %.3f Mbps\n", rep.ControlMbps())
	fmt.Printf("  processor utilization    : %.1f%%\n", 100*rep.ProcUtilization)
	fmt.Printf("  disk utilization         : %.1f%%\n", 100*rep.DiskUtilization)
	fmt.Printf("  disk traffic             : %d reads, %d writes\n", rep.DiskReads, rep.DiskWrites)
	if *cacheFault > 0 {
		fmt.Printf("  cache read faults        : %d (all retried)\n", rep.CacheReadFaults)
	}
}

func parseGranularity(s string) (dfdbm.Granularity, error) {
	switch s {
	case "page":
		return dfdbm.PageLevel, nil
	case "relation":
		return dfdbm.RelationLevel, nil
	case "tuple":
		return dfdbm.TupleLevel, nil
	}
	return 0, fmt.Errorf("unknown granularity %q", s)
}
