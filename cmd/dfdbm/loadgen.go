package main

// The loadgen subcommand: replay a declarative load profile — a
// simulated day of phases, query mixes, SLOs, and disturbances — with
// time compression, either against a self-hosted in-process server
// (the default; maintenance/slowdown events and scheduler gauges work)
// or a remote one via -addr. Writes per-interval timeline artifacts,
// serves the live /loadgen endpoint under -http, and exits nonzero
// when the run misses its SLOs.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dfdbm"
)

func cmdLoadgen(db *dfdbm.DB, args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	profilePath := fs.String("profile", "", "load profile YAML (required)")
	timeScale := fs.Float64("time-scale", 0, "override the profile's time compression (0 = profile value)")
	addr := fs.String("addr", "", "drive a running server at this address instead of self-hosting (in-process events are skipped)")
	out := fs.String("out", "", "write timeline.csv and timeline.json into this directory")
	runners := fs.Int("runners", 4, "self-hosted: fixed runner pool size (the autoscale floor with -autoscale)")
	maxRunners := fs.Int("max-runners", 16, "self-hosted: autoscale ceiling for -autoscale")
	autoscale := fs.Bool("autoscale", false, "self-hosted: autoscale the runner pool (bounds from the profile's autoscale section, else -runners/-max-runners)")
	queueDepth := fs.Int("queue-depth", 64, "self-hosted: admission queue depth")
	dataDir := fs.String("data-dir", "", "self-hosted: durable data directory — recover from it on start and write-ahead log every write, serving stored relations through the heap buffer pool")
	bufferFrames := fs.Int("buffer-frames", 0, "self-hosted with -data-dir: heap buffer-pool frame budget (0 = 1024)")
	httpAddr := fs.String("http", "", "serve live introspection plus /loadgen on this address during the replay")
	sloExit := fs.Bool("slo-exit", true, "exit nonzero when the run violates its SLOs")
	quiet := fs.Bool("quiet", false, "suppress per-interval progress lines")
	check(fs.Parse(args))
	if *profilePath == "" || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: dfdbm loadgen -profile FILE [-time-scale F] [-autoscale] [-runners N] [-max-runners N] [-addr A] [-out DIR] [-http A] [-slo-exit=false]")
		os.Exit(2)
	}

	src, err := os.ReadFile(*profilePath)
	check(err)
	profile, err := dfdbm.ParseLoadProfile(src)
	check(err)

	cfg := dfdbm.LoadRunConfig{
		Profile:   profile,
		TimeScale: *timeScale,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	var reg *dfdbm.Metrics
	if *addr != "" {
		cfg.Addr = *addr
	} else {
		// Self-hosted: the served database lives in this process, so the
		// profile's maintenance and slowdown events have real hooks and
		// timeline rows carry the scheduler's gauges.
		reg = dfdbm.NewMetrics(100 * time.Millisecond)
		o := dfdbm.NewObserver(nil, reg)

		// With -data-dir the self-hosted server runs the real durable
		// stack: stored relations live in heap files behind the buffer
		// pool, and bufpool.* gauges land in the timeline registry — so a
		// profile can prove SLOs hold while eviction churns.
		var wlog *dfdbm.WAL
		if *dataDir != "" {
			l, recovered, rv, err := dfdbm.OpenWAL(*dataDir, dfdbm.WALOptions{
				Obs:  o,
				Heap: &dfdbm.HeapOptions{Frames: *bufferFrames},
			})
			check(err)
			wlog = l
			// Runs after the deferred srv.Close(): the server is
			// quiescent, so checkpoint for a fast next recovery.
			defer func() {
				if cerr := wlog.Checkpoint(db.Catalog()); cerr != nil {
					fmt.Fprintf(os.Stderr, "dfdbm: shutdown checkpoint failed: %v\n", cerr)
				}
				check(wlog.Close())
			}()
			if recovered != nil {
				db = recovered
				fmt.Fprintf(os.Stderr, "dfdbm: %s in %v\n", rv, rv.Elapsed.Round(time.Millisecond))
			} else {
				check(l.Checkpoint(db.Catalog()))
				fmt.Fprintf(os.Stderr, "dfdbm: initialized %s with %d relations\n", *dataDir, len(db.Names()))
			}
		}

		var as *dfdbm.AutoscaleConfig
		if *autoscale {
			as = &dfdbm.AutoscaleConfig{Min: *runners, Max: *maxRunners}
			if pol := profile.Autoscale; pol != nil {
				as.Min, as.Max = pol.Min, pol.Max
				as.Interval, as.Cooldown = pol.Interval, pol.Cooldown
				as.HighDepth, as.HighWait = pol.HighDepth, pol.HighWait
				as.LowUtil, as.Hold = pol.LowUtil, pol.Hold
			}
		}
		srv, err := dfdbm.Serve(db, dfdbm.ServeConfig{
			Addr:        "127.0.0.1:0",
			MaxSessions: 256,
			QueueDepth:  *queueDepth,
			Runners:     *runners,
			MaxRunners:  *maxRunners,
			Autoscale:   as,
			WAL:         wlog,
			Obs:         o,
		})
		check(err)
		defer srv.Close()
		cfg.Addr = srv.Addr()
		cfg.Control = &dfdbm.LoadControl{
			Checkpoint:   srv.Checkpoint,
			SetExecDelay: srv.SetExecDelay,
			Registry:     reg,
		}
		mode := fmt.Sprintf("fixed %d runners", *runners)
		if as != nil {
			mode = fmt.Sprintf("autoscale %d..%d runners", as.Min, as.Max)
		}
		if wlog != nil {
			mode += fmt.Sprintf(", data-dir=%s", *dataDir)
		}
		fmt.Fprintf(os.Stderr, "dfdbm: self-hosted server on %s (%s)\n", srv.Addr(), mode)
	}

	if *httpAddr != "" {
		cfg.Live = dfdbm.NewLoadLive(profile.Name)
		osrv, err := dfdbm.StartObsServer(*httpAddr, reg, nil, nil)
		check(err)
		defer osrv.Close()
		osrv.Handle("/loadgen", cfg.Live)
		fmt.Fprintf(os.Stderr, "dfdbm: live timeline on http://%s/loadgen\n", osrv.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	rep, err := dfdbm.RunLoad(ctx, cfg)
	if rep == nil {
		check(err)
	}

	fmt.Printf("%-12s %9s %6s %8s %12s %9s  %s\n",
		"PHASE", "INTERVALS", "GRACED", "VIOLATED", "WORST p99", "MAX SHED", "VERDICT")
	for _, ph := range rep.Phases {
		verdict := "pass"
		if !ph.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("%-12s %9d %6d %8d %12s %8.1f%%  %s\n",
			ph.Phase, ph.Intervals, ph.Graced, ph.Violated,
			fmt.Sprintf("%.1fms", ph.WorstP99MS), 100*ph.MaxShedRate, verdict)
	}
	verdict := "PASS"
	if !rep.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("loadgen %s: offered %d, completed %d, shed %d, dropped %d, errors %d in %.1fs wall (scale %g)\n",
		verdict, rep.Offered, rep.Completed, rep.Shed, rep.Dropped, rep.Errors, rep.WallS, rep.TimeScale)

	if *out != "" {
		check(os.MkdirAll(*out, 0o755))
		csvPath := filepath.Join(*out, "timeline.csv")
		cf, cerr := os.Create(csvPath)
		check(cerr)
		check(dfdbm.WriteLoadCSV(cf, rep.Rows))
		check(cf.Close())
		jsonPath := filepath.Join(*out, "timeline.json")
		jf, jerr := os.Create(jsonPath)
		check(jerr)
		check(dfdbm.WriteLoadJSON(jf, rep))
		check(jf.Close())
		fmt.Fprintf(os.Stderr, "dfdbm: wrote %s and %s\n", csvPath, jsonPath)
	}

	check(err)
	if !rep.Pass && *sloExit {
		os.Exit(1)
	}
}
