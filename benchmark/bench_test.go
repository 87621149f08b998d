package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dfdbm/internal/wire"
)

func statsFrame(admitWait, dispatch, exec, stream time.Duration) *wire.Stats {
	return &wire.Stats{AdmitWait: admitWait, Sched: dispatch, Exec: exec, Stream: stream}
}

func texts(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.text
	}
	return out
}

// Every pass is the same multiset of ops, the same seed gives the same
// order, and another seed gives another.
func TestDeckPasses(t *testing.T) {
	for _, name := range workloadNames {
		sp, err := specFor(name)
		if err != nil {
			t.Fatal(err)
		}
		want := texts(sp.deck.pass(rand.New(rand.NewSource(0))))
		sort.Strings(want)

		a, b, c := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7)), rand.New(rand.NewSource(8))
		differs := false
		for pass := 0; pass < 5; pass++ {
			pa, pb, pc := texts(sp.deck.pass(a)), texts(sp.deck.pass(b)), texts(sp.deck.pass(c))
			if strings.Join(pa, "\n") != strings.Join(pb, "\n") {
				t.Fatalf("%s: pass %d differs between two runs of seed 7", name, pass)
			}
			if strings.Join(pa, "\n") != strings.Join(pc, "\n") {
				differs = true
			}
			sort.Strings(pa)
			if strings.Join(pa, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s: pass %d is not the deck's multiset", name, pass)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same five passes", name)
		}
	}
	if _, err := specFor("nope"); err == nil {
		t.Error("specFor accepted an unknown workload")
	}
}

// The cold deck pairs every big scan with a small one.
func TestColdDeckInterleaves(t *testing.T) {
	sp, _ := specFor("cold")
	if got := sp.deck.size(); got != 176 {
		t.Fatalf("cold deck has %d ops, want 176", got)
	}
	small := regexp.MustCompile(`^restrict\(r1[45],`)
	for i, o := range sp.deck.pass(rand.New(rand.NewSource(3))) {
		if small.MatchString(o.text) != (i%2 == 1) {
			t.Fatalf("op %d of a cold pass is %q: big and small scans do not alternate", i, o.text)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}} {
		if got := percentile(s, c.q); !near(got, c.want) {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if !near(q1, 1.75) || !near(q2, 3.5) || !near(q3, 5.25) {
		t.Errorf("quartiles(pi digits) = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 20, End: 50},
		{Start: 10, End: 30},  // overlaps the first: counted once
		{Start: 90, End: 120}, // runs past the parent: clipped
		{Start: 60, End: 60},  // empty
	}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// An op's spans tile its round trip up to the gap, and group back into
// the op they came from.
func TestOpSpans(t *testing.T) {
	epoch := time.Now()
	r := &reply{sent: epoch.Add(time.Millisecond), wrote: 10, firstByte: 700, ttfp: 750, rtt: 1000,
		stats: statsFrame(100, 50, 400, 200)}
	log := appendOpSpans(nil, epoch, 9, op{text: "q", class: classPrimary}, r)
	if len(log) != spansPerOp {
		t.Fatalf("one op recorded %d spans, want %d", len(log), spansPerOp)
	}
	n := 0
	eachOp(log, func(tr opTrace) {
		n++
		if tr.root.dur() != 1000 || tr.child(spanExec).dur() != 400 || tr.child(spanRecvDecode).dur() != 300 {
			t.Errorf("op %d exec %d recv %d, want 1000 400 300", tr.root.dur(), tr.child(spanExec).dur(), tr.child(spanRecvDecode).dur())
		}
		// send 10, then 100+50+400+200 back to back to 760; recv covers
		// 700..1000; together 0..1000 with nothing left over.
		if gap := selfTime(tr.root, tr.kids); gap != 0 {
			t.Errorf("gap = %d, want 0", gap)
		}
		for _, k := range tr.kids {
			if k.Parent != tr.root.ID || k.Op != tr.root.Op {
				t.Errorf("span %s is not a child of its op", k.Name)
			}
		}
	})
	if n != 1 {
		t.Errorf("eachOp visited %d ops, want 1", n)
	}
}

// The reference divides times, multiplies rates and leaves counts be.
func TestReferenced(t *testing.T) {
	const slow = 1.25
	for _, m := range endToEnd {
		got := referenced(m.kind, 100, slow)
		want := 100.0
		switch m.name {
		case "throughput_ops_s":
			want = 125
		case "alloc_kb_per_op":
		default:
			want = 80
		}
		if !near(got, want) {
			t.Errorf("%s: 100 at slowness 1.25 became %v, want %v", m.name, got, want)
		}
	}
	r := hostReading{walk: 2 * walkRefNs, ping: pingRefNs / 2}
	if got := r.slowness(); !near(got, 1) {
		t.Errorf("walk twice as slow and ping twice as fast read %v, want 1", got)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// What the binary prints is what BENCHMARK.json declares, name for
// name and unit for unit, within the limits the contract sets.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d is %s [%s] in BENCHMARK.json, %s [%s] in the binary", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's pattern", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if (m.Better == "higher") != (endToEnd[i].kind == kindRate) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Unit != "s" || bj.EndToEnd[0].Better != "lower" {
		t.Error("setup_s [s, lower] must be declared")
	}

	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d is %s [%s] in BENCHMARK.json, %s [%s] in the binary", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}

	// All runs together must fit the contract's cap with room for two
	// cold builds: 4 + 22 per workload, each run_seconds of rounds plus
	// set-up, readings and teardown (traced runs add a replay).
	if bj.RunSeconds < 20 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	runs := 4 + 22*len(bj.Workloads)
	const perRunOverhead, builds, limit = 8.0, 120.0, 3420.0
	if total := float64(runs)*(float64(bj.RunSeconds)+perRunOverhead) + builds; total > limit {
		t.Errorf("%d runs of %d s need about %.0f s, over the cap of %.0f", runs, bj.RunSeconds, total, limit)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || len(bj.Command) == 0 {
		t.Errorf("paths %v command %v", bj.Paths, bj.Command)
	}
}

// lastLine parses the result line a run printed.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// settle waits for goroutines that are on their way out.
func settle(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func leftovers(t *testing.T, home string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(home, "out"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	return dirs
}

// A short run of each workload, untraced and traced, prints every
// metric of its list and nothing else, fails no op, and leaves no
// goroutine (so no listener) and no data directory behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload twice")
	}
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				home := t.TempDir()
				baseline := runtime.NumGoroutine()
				var stdout, stderr bytes.Buffer
				code := run(context.Background(), time.Now(),
					[]string{"--workload", name, "--seed", "5", "--seconds", "0.3", "--trace", trace, "-home", home},
					&stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok {
						t.Errorf("metric %s missing", m.name)
						continue
					}
					if got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s = %v %s, want a number in %s", m.name, got.Value, got.Unit, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", m.name, got.Value)
					}
				}
				if trace == "1" {
					if _, err := os.Stat(filepath.Join(home, "out", "spans-"+name+".jsonl")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
				if n := settle(baseline); n > baseline {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines before, %d after\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
				}
				if dirs := leftovers(t, home); len(dirs) > 0 {
					t.Errorf("left behind %v", dirs)
				}
			})
		}
	}
}

// A signal mid-run ends the run without a result and cleans up.
func TestInterrupt(t *testing.T) {
	home := t.TempDir()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, time.Now(), []string{"--workload", "ingest", "--seconds", "20", "-home", home}, &stdout, &stderr)
	}()
	time.Sleep(1500 * time.Millisecond)
	cancel()
	select {
	case code := <-done:
		if code == 0 {
			t.Errorf("interrupted run exited 0")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not stop within 20 s of the interrupt")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("interrupted run printed a result:\n%s", stdout.String())
	}
	if n := settle(baseline); n > baseline {
		t.Errorf("%d goroutines before, %d after", baseline, n)
	}
	if dirs := leftovers(t, home); len(dirs) > 0 {
		t.Errorf("left behind %v", dirs)
	}
}

func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), time.Now(), []string{"--workload", "nope", "--seconds", "1"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run(context.Background(), time.Now(), []string{"--seconds", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("zero seconds exited %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("usage errors printed to stdout: %s", stdout.String())
	}
}
