package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus exports the registry in the Prometheus text
// exposition format (version 0.0.4): counters as counter samples,
// gauges as gauge samples, and each timeline's running integral as a
// counter (scrapers recover per-bucket rates by deriving it). Series
// are exported as their last sample, gauge-typed. Histograms export as
// native Prometheus histograms (cumulative le buckets, _sum, _count)
// plus _p50/_p95/_p99 gauge summaries computed at scrape time. Metric
// names are sanitized (dots become underscores) and the output is
// sorted, so repeated scrapes of a quiet registry are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	write := func(name, typ string, v float64) error {
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", n, helpFor(name), n, typ); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %g\n", n, v)
		return err
	}
	for _, name := range sortedKeys(r.counters) {
		if err := write(name, "counter", float64(r.counters[name].Load())); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauges) {
		if err := write(name, "gauge", r.gauges[name].value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.series) {
		s := r.series[name]
		if len(s.V) == 0 {
			continue
		}
		if err := write(name, "gauge", s.V[len(s.V)-1]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.timelines) {
		if err := write(name+"_total", "counter", r.timelines[name].Integral()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		s := h.Snapshot()
		n := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", n, helpFor(name), n); err != nil {
			return err
		}
		var cum int64
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = fmt.Sprintf("%d", s.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, s.Sum, n, s.Count); err != nil {
			return err
		}
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
			if err := write(name+q.suffix, "gauge", float64(h.Quantile(q.q))); err != nil {
				return err
			}
		}
	}
	return nil
}

// promHelp maps registry metric names to their # HELP text. Names not
// listed fall back to a subsystem-prefix description so every exported
// family still carries a non-empty HELP line (real Prometheus scrapers
// warn on families without one).
var promHelp = map[string]string{
	"server.sessions":          "Client sessions accepted over the wire protocol.",
	"server.queries":           "Queries received by the service path.",
	"server.slow_queries":      "Queries whose total latency exceeded the slow-query threshold.",
	"sched.admitted":           "Jobs admitted by the scheduler into a priority lane.",
	"sched.shed":               "Jobs rejected at admission because the lane queue was full.",
	"sched.queue_depth":        "Jobs currently queued across all lanes, waiting for a runner.",
	"sched.runners_busy":       "Runners currently executing a job.",
	"sched.runners":            "Current size of the runner pool (moves when autoscaling).",
	"sched.runner_utilization": "Busy runners as a fraction of the pool size.",
	"sched.scale_ups":          "Autoscaler decisions that grew the runner pool.",
	"sched.scale_downs":        "Autoscaler decisions that shrank the runner pool.",
	"bufpool.hits":             "Buffer-pool page requests served by a resident frame.",
	"bufpool.misses":           "Buffer-pool page requests read from the heap file.",
	"bufpool.reads":            "Heap-file reads, each covering one or more missed pages.",
	"bufpool.evictions":        "Resident pages displaced from their frames by CLOCK eviction.",
	"bufpool.writebacks":       "Dirty pages written back to their heap file.",
	"bufpool.frames":           "Frame budget of the buffer pool.",
	"bufpool.frames_in_use":    "Buffer-pool frames holding or loading a page.",
}

// promHelpPrefixes supplies HELP text by subsystem when no exact entry
// exists; ordered most-specific first.
var promHelpPrefixes = []struct{ prefix, help string }{
	{"sched.admit_wait_ns", "Nanoseconds a job waited between admission and dispatch."},
	{"sched.exec_ns", "Nanoseconds a runner spent executing a job."},
	{"server.stream_ns", "Nanoseconds spent streaming result tuples to the client."},
	{"bufpool.busy_us", "Microseconds the buffer pool spent reading misses and writing back victims."},
	{"bufpool.", "Buffer-pool metric."},
	{"core.", "Data-flow engine metric."},
	{"obs.", "Observability-layer metric."},
	{"wal.", "Write-ahead-log metric."},
	{"sched.", "Admission-scheduler metric."},
	{"server.", "Service-path metric."},
	{"machine.", "Data-flow machine metric."},
	{"loadgen.", "Load-generator metric."},
}

func helpFor(name string) string {
	if h, ok := promHelp[name]; ok {
		return h
	}
	for _, p := range promHelpPrefixes {
		if strings.HasPrefix(name, p.prefix) {
			return p.help
		}
	}
	return "Registry metric " + name + "."
}

// promName sanitizes a registry metric name ("machine.outer_ring_bytes")
// into a valid Prometheus metric name ("machine_outer_ring_bytes").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
