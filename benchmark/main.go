// Command benchmark measures dfdbm's service path — wire, scheduler,
// engine, buffer pool, write-ahead log, result stream — end to end and
// layer by layer. One process hosts the server on a loopback port,
// drives it with its own sessions, verifies every answer against the
// serial reference executor, and prints every metric by name. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	started := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, started, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process: it returns the exit code, and by
// the time it returns everything it started has stopped.
func run(ctx context.Context, started time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{started: started}
	fs.StringVar(&opt.workload, "workload", "mix", "workload to run: mix, fetch, cold or ingest")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the operation order (the database never changes)")
	fs.Float64Var(&opt.seconds, "seconds", 30, "how long to measure, split into ten rounds")
	trace := fs.Int("trace", 0, "1 records spans and replays the layers, and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&opt.home, "home", ".", "the benchmark's own directory; data directories and span files go under its out/")
	agree := fs.Int("agree", 0, "run the workload this many times with seeds 1..N and print how well the runs agree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || opt.seconds <= 0 || *agree < 0 {
		fmt.Fprintln(stderr, "usage: benchmark -workload W -seed N -seconds S -trace 0|1 [-home DIR] [-agree N]")
		return 2
	}
	opt.trace = *trace != 0

	if *agree > 0 {
		if err := agreeRuns(ctx, opt, *agree, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	res, err := runOnce(ctx, opt, stdout)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "benchmark: interrupted")
			return 130
		}
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := report(stdout, opt, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "benchmark: %d of %d ops failed; first: %v\n", res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric by name with its unit, then the result
// as one JSON object on the last line.
func report(w io.Writer, opt options, res *outcome) error {
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	if opt.trace {
		for _, m := range perLayer {
			v, ok := res.layer[m.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			fmt.Fprintf(w, "%-34s %14.4f %s\n", m.name, v, m.unit)
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		fmt.Fprintf(w, "%-22s %14s %-6s %14s\n", "metric", "at reference", "unit", "as measured")
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-22s %14.4f %-6s %14.4f\n", m.name, res.e2e[m.name], m.unit, res.raw[m.name])
			line.Metrics[m.name] = metricValue{res.e2e[m.name], m.unit}
		}
		fmt.Fprintf(w, "# latency percentiles pool %d samples; %d ops attempted, %d failed\n", res.samples, res.attempted, res.failed)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// benchmarkFile is the part of BENCHMARK.json the agreement report
// reads: the bound of each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreeRuns runs the workload n times with seeds 1..n and prints, for
// each end-to-end metric, the median, the quartiles and the quartile
// spread as a share of the median — at the reference speed and as
// measured — beside the bound BENCHMARK.json sets.
func agreeRuns(ctx context.Context, opt options, n int, w io.Writer) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile(filepath.Join(opt.home, "..", "BENCHMARK.json")); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	ref := map[string][]float64{}
	raw := map[string][]float64{}
	var slow []float64
	for seed := int64(1); seed <= int64(n); seed++ {
		o := opt
		o.seed, o.trace, o.started = seed, false, time.Now()
		res, err := runOnce(ctx, o, w)
		if err != nil {
			return err
		}
		if !res.correct() {
			return fmt.Errorf("seed %d: %d of %d ops failed; first: %v", seed, res.failed, res.attempted, res.firstErr)
		}
		for _, m := range endToEnd {
			ref[m.name] = append(ref[m.name], res.e2e[m.name])
			raw[m.name] = append(raw[m.name], res.raw[m.name])
		}
		slow = append(slow, res.slowness)
	}
	fmt.Fprintf(w, "\n%s, %d runs of %.0f s, seeds 1..%d; host_slowness median %.4f, spread %.3f\n",
		opt.workload, n, opt.seconds, n, median(slow), spread(slow))
	fmt.Fprintf(w, "%-22s %-6s %6s | %11s %11s %11s %7s | %11s %11s %11s %7s\n",
		"metric", "unit", "bound", "ref q1", "ref median", "ref q3", "spread", "raw q1", "raw median", "raw q3", "spread")
	for _, m := range endToEnd {
		a1, a2, a3 := quartiles(ref[m.name])
		b1, b2, b3 := quartiles(raw[m.name])
		fmt.Fprintf(w, "%-22s %-6s %6.2f | %11.4f %11.4f %11.4f %7.3f | %11.4f %11.4f %11.4f %7.3f\n",
			m.name, m.unit, bounds[m.name], a1, a2, a3, spread(ref[m.name]), b1, b2, b3, spread(raw[m.name]))
	}
	return nil
}
