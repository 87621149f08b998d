package main

// The serve and client subcommands: the network query service of the
// root package's Serve/Dial façade, exposed from the shell.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dfdbm"
)

func cmdServe(db *dfdbm.DB, args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7432", "TCP listen address")
	maxSessions := fs.Int("max-sessions", 64, "maximum concurrent sessions")
	maxInflight := fs.Int("max-inflight", 4, "maximum in-flight queries per session")
	queueDepth := fs.Int("queue-depth", 64, "admission queue depth (beyond it, queries are shed)")
	runners := fs.Int("runners", 4, "engine runner pool size (the autoscale floor with -autoscale)")
	maxRunners := fs.Int("max-runners", 16, "runner pool ceiling for -autoscale")
	autoscale := fs.Bool("autoscale", false, "autoscale the runner pool between -runners and -max-runners against queue depth and admit-wait")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before in-flight queries are cancelled")
	sessionTimeout := fs.Duration("session-timeout", 5*time.Minute, "idle session deadline")
	workers := fs.Int("workers", 4, "core-engine workers per query")
	slowQuery := fs.Duration("slow-query-threshold", 0, "log queries whose end-to-end time exceeds this (0 disables)")
	dataDir := fs.String("data-dir", "", "durable data directory: recover from it on start, write-ahead log every write into it")
	bufferFrames := fs.Int("buffer-frames", 0, "heap buffer-pool frame budget shared by all relations (0 = 1024); relations larger than it scan through CLOCK eviction")
	fsyncMode := fs.String("fsync", "commit", "WAL durability: commit (fsync before every ack) or none")
	checkpointEvery := fs.Int64("checkpoint-every", 0, "auto-checkpoint once the log grows this many bytes past the last checkpoint (0 = 8 MiB, negative disables)")
	segmentSize := fs.Int64("wal-segment-size", 0, "WAL segment rotation threshold in bytes (0 = 16 MiB)")
	of := addObsFlags(fs)
	check(fs.Parse(args))
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: dfdbm serve [-addr A] [-data-dir DIR] [-fsync commit|none] [-max-sessions N] [-queue-depth N] [-runners N] [-max-inflight N] [-drain-timeout D]")
		os.Exit(2)
	}

	// A server always meters itself: session/scheduler counters and
	// gauges exist even before -http or -metrics-out ask for them.
	o, sess := of.buildAlways()

	// With a data directory, the durable state there is authoritative:
	// recover it, or — when the directory is fresh — seed it with the
	// database built from -db / the generated benchmark and checkpoint
	// that into the heap files.
	var wlog *dfdbm.WAL
	if *dataDir != "" {
		policy, err := dfdbm.ParseFsyncPolicy(*fsyncMode)
		check(err)
		// Each relation lives in its own slotted heap file behind the
		// shared buffer pool.
		l, recovered, rv, err := dfdbm.OpenWAL(*dataDir, dfdbm.WALOptions{
			SegmentSize: *segmentSize,
			Fsync:       policy,
			Obs:         o,
			Heap:        &dfdbm.HeapOptions{Frames: *bufferFrames},
		})
		check(err)
		wlog = l
		if recovered != nil {
			db = recovered
			fmt.Printf("dfdbm: %s in %v\n", rv, rv.Elapsed.Round(time.Millisecond))
		} else {
			check(l.Checkpoint(db.Catalog()))
			fmt.Printf("dfdbm: initialized %s with %d relations\n", *dataDir, len(db.Names()))
		}
	}

	var as *dfdbm.AutoscaleConfig
	if *autoscale {
		as = &dfdbm.AutoscaleConfig{Min: *runners, Max: *maxRunners}
	}
	srv, err := dfdbm.Serve(db, dfdbm.ServeConfig{
		Addr:            *addr,
		MaxSessions:     *maxSessions,
		MaxInflight:     *maxInflight,
		QueueDepth:      *queueDepth,
		Runners:         *runners,
		MaxRunners:      *maxRunners,
		Autoscale:       as,
		SessionTimeout:  *sessionTimeout,
		Workers:         *workers,
		SlowQuery:       *slowQuery,
		WAL:             wlog,
		CheckpointEvery: *checkpointEvery,
		Obs:             o,
	})
	check(err)
	durable := ""
	if wlog != nil {
		durable = fmt.Sprintf(", data-dir=%s fsync=%s", *dataDir, *fsyncMode)
	}
	pool := fmt.Sprintf("runners=%d", *runners)
	if as != nil {
		pool = fmt.Sprintf("runners=%d..%d (autoscale)", *runners, *maxRunners)
	}
	fmt.Printf("dfdbm: serving %d relations on %s (engine=%s, %s, queue=%d%s)\n",
		len(db.Names()), srv.Addr(), dfdbm.ServeEngineCore, pool, *queueDepth, durable)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintf(os.Stderr, "dfdbm: draining (timeout %v)...\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = srv.Shutdown(dctx)
	if wlog != nil {
		// The server is quiescent after the drain: checkpoint so the
		// next start recovers from the heap files instead of replaying
		// the whole tail, then close the log.
		if cerr := wlog.Checkpoint(db.Catalog()); cerr != nil {
			fmt.Fprintf(os.Stderr, "dfdbm: shutdown checkpoint failed: %v\n", cerr)
		}
		if cerr := wlog.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	sess.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfdbm: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dfdbm: drained cleanly")
}

// cmdWal inspects or verifies a durable data directory offline.
func cmdWal(args []string) {
	if len(args) < 1 || (args[0] != "inspect" && args[0] != "verify") {
		fmt.Fprintln(os.Stderr, "usage: dfdbm wal <inspect|verify> -data-dir DIR [-records]")
		os.Exit(2)
	}
	verb := args[0]
	fs := flag.NewFlagSet("wal "+verb, flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable data directory to read")
	records := fs.Bool("records", false, "inspect: print every log record")
	check(fs.Parse(args[1:]))
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "usage: dfdbm wal <inspect|verify> -data-dir DIR [-records]")
		os.Exit(2)
	}

	var fn func(string, int64, *dfdbm.WALRecord)
	if verb == "inspect" && *records {
		fn = func(seg string, off int64, rec *dfdbm.WALRecord) {
			fmt.Printf("  %s @%-8d lsn %-6d %s\n", seg, off, rec.LSN, rec.Summary())
		}
	}
	rp, err := dfdbm.InspectWAL(*dataDir, fn)
	check(err)

	if verb == "verify" {
		if !rp.Clean() {
			for _, sg := range rp.Segments {
				if sg.Err != "" {
					fmt.Fprintf(os.Stderr, "dfdbm: segment %s: %s\n", sg.Name, sg.Err)
				}
			}
			for _, h := range rp.Heap {
				if h.Err != nil {
					fmt.Fprintf(os.Stderr, "dfdbm: heap file %s: %v\n", h.Rel, h.Err)
				}
			}
			os.Exit(1)
		}
		fmt.Printf("dfdbm: %s clean: %d heap files, %d segments, %d records (LSN %d..%d)\n",
			*dataDir, len(rp.Heap), len(rp.Segments), rp.Records, rp.FirstLSN, rp.LastLSN)
		return
	}

	fmt.Printf("%s: %d records, LSN %d..%d\n", *dataDir, rp.Records, rp.FirstLSN, rp.LastLSN)
	fmt.Printf("heap files (%d), covering LSN %d:\n", len(rp.Heap), rp.Cover)
	for _, h := range rp.Heap {
		status := "ok"
		if h.Err != nil {
			status = h.Err.Error()
		}
		fmt.Printf("  %-20s %5d pages %8d tuples  %10dB on disk  %s\n",
			h.Rel, h.Pages, h.Tuples, h.Bytes, status)
	}
	fmt.Printf("segments (%d):\n", len(rp.Segments))
	for _, sg := range rp.Segments {
		status := "ok"
		if sg.Err != "" {
			status = sg.Err
		}
		fmt.Printf("  %-28s lsn %d..%-6d %4d records %8dB  %s\n",
			sg.Name, sg.FirstLSN, sg.LastLSN, sg.Records, sg.Bytes, status)
	}
}

// readQueryFile loads a query-per-line file; blank lines and
// #-comments are skipped.
func readQueryFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, nil
}

func cmdClient(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7432", "server address")
	priority := fs.String("priority", "normal", "admission priority: high, normal, or low")
	name := fs.String("name", "dfdbm-client", "session name shown in server logs")
	timeout := fs.Duration("timeout", 60*time.Second, "per-query timeout")
	quiet := fs.Bool("quiet", false, "print stats only, not result tuples")
	verbose := fs.Bool("v", false, "print the trace ID and the server's per-stage latency breakdown against the measured RTT")
	file := fs.String("f", "", "read queries from this file (one per line; # starts a comment) before any argument queries")
	check(fs.Parse(args))
	queries := fs.Args()
	if *file != "" {
		fromFile, err := readQueryFile(*file)
		check(err)
		queries = append(fromFile, queries...)
	}
	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dfdbm client [-addr A] [-priority P] [-f FILE] '<query>' ...")
		os.Exit(2)
	}
	var prio uint8
	switch *priority {
	case "high":
		prio = 0
	case "normal":
		prio = 1
	case "low":
		prio = 2
	default:
		check(fmt.Errorf("unknown priority %q (want high, normal, or low)", *priority))
	}

	c, err := dfdbm.Dial(*addr, dfdbm.ClientConfig{Name: *name, Timeout: *timeout})
	check(err)
	defer c.Close()
	if *verbose {
		fmt.Printf("session %d, protocol v%d, engine %s\n", c.SessionID(), c.ProtocolVersion(), c.Engine())
	}
	for _, text := range queries {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		sent := time.Now()
		res, err := c.QueryPriority(ctx, text, prio)
		rtt := time.Since(sent)
		cancel()
		check(err)
		if !*quiet {
			shown := 0
			_ = res.Relation.Each(func(t dfdbm.Tuple) bool {
				fmt.Println(" ", t)
				shown++
				return shown < 10
			})
			if res.Relation.Cardinality() > shown {
				fmt.Printf("  ... and %d more\n", res.Relation.Cardinality()-shown)
			}
		}
		st := res.Stats
		deferred := ""
		if st.Deferred {
			deferred = ", deferred on conflict"
		}
		fmt.Printf("%d tuples in %d pages (%dB) on %s; queued %v, ran %v%s\n",
			st.Tuples, st.Pages, st.ResultBytes, st.Engine,
			st.Queued.Round(time.Microsecond), st.Exec.Round(time.Microsecond), deferred)
		if *verbose {
			server := st.AdmitWait + st.Sched + st.Exec + st.Stream
			// The measured RTT exceeds the server's accounted stages by
			// client-side work and network time; label that remainder
			// explicitly instead of leaving the books unbalanced. Clamp
			// at zero: stage clocks and the RTT clock are different
			// clocks, so tiny negative remainders happen.
			unaccounted := rtt - server
			if unaccounted < 0 {
				unaccounted = 0
			}
			us := time.Microsecond
			fmt.Printf("  trace %x: rtt %v = server %v (admit-wait %v + schedule %v + execute %v + stream %v) + client/network %v\n",
				st.TraceID, rtt.Round(us), server.Round(us), st.AdmitWait.Round(us),
				st.Sched.Round(us), st.Exec.Round(us), st.Stream.Round(us), unaccounted.Round(us))
		}
	}
}
