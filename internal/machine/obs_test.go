package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dfdbm/internal/obs"
)

// traceOne runs one query on a fresh machine with the given observer
// and returns the run's results.
func traceOne(t *testing.T, o *obs.Observer, queryIdx int) *Results {
	t.Helper()
	cat, qs := testDB(t, 0.05)
	m, err := New(cat, Config{HW: smallHW(), Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(qs[queryIdx]); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenTraceDeterminism: two runs of the same workload under the
// same seed must produce byte-identical text traces — the simulation is
// deterministic, and so must its observability be.
func TestGoldenTraceDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	traceOne(t, obs.New(obs.NewTextSink(&a), nil), 2)
	traceOne(t, obs.New(obs.NewTextSink(&b), nil), 2)
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same-seed runs produced different traces")
	}
}

// TestChromeTraceFromMachineRun: a real machine run through the Chrome
// sink must yield valid trace-event JSON with the required fields.
func TestChromeTraceFromMachineRun(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewChromeSink(&buf)
	o := obs.New(sink, nil)
	traceOne(t, o, 2)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	instants := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "" || e.PID == nil || e.TID == nil {
			t.Fatalf("event missing ph/pid/tid: %+v", e)
		}
		if e.Ph == "i" {
			instants++
			if e.TS == nil || *e.TS < 0 {
				t.Fatalf("instant event without a valid ts: %+v", e)
			}
		}
	}
	if instants == 0 {
		t.Error("no instant events in the trace")
	}
}

// TestOuterRingTimelineMatchesStats: the outer-ring bandwidth timeline
// is recorded increment for increment with Stats.OuterRingBytes, so its
// integral must equal the counter (the 1%-agreement acceptance bound is
// met exactly).
func TestOuterRingTimelineMatchesStats(t *testing.T) {
	reg := obs.NewRegistry(0)
	res := traceOne(t, obs.New(nil, reg), 2)
	tl := reg.Timeline("machine.outer_ring_bytes")
	if tl == nil {
		t.Fatal("no outer-ring timeline recorded")
	}
	got, want := tl.Integral(), float64(res.Stats.OuterRingBytes)
	if want == 0 {
		t.Fatal("no outer-ring traffic")
	}
	if diff := got - want; diff < -0.01*want || diff > 0.01*want {
		t.Errorf("timeline integral %g, Stats.OuterRingBytes %g", got, want)
	}
	inner := reg.Timeline("machine.inner_ring_bytes")
	if inner == nil || inner.Integral() != float64(res.Stats.InnerRingBytes) {
		t.Error("inner-ring timeline does not match Stats.InnerRingBytes")
	}
}

// TestStatsExportedThroughRegistry: every Stats field must come back
// out of the metrics registry as a counter, and the derived figures as
// gauges.
func TestStatsExportedThroughRegistry(t *testing.T) {
	reg := obs.NewRegistry(0)
	res := traceOne(t, obs.New(nil, reg), 2)
	s := res.Stats
	for _, c := range []struct {
		name string
		want int64
	}{
		{"machine.outer_ring_packets", s.OuterRingPackets},
		{"machine.outer_ring_bytes_total", s.OuterRingBytes},
		{"machine.inner_ring_bytes_total", s.InnerRingBytes},
		{"machine.instruction_packets", s.InstructionPackets},
		{"machine.result_packets", s.ResultPackets},
		{"machine.control_packets", s.ControlPackets},
		{"machine.broadcasts", s.Broadcasts},
		{"machine.disk_reads", s.DiskReads},
		{"machine.cache_writes", s.CacheWrites},
	} {
		if got := reg.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if v, ok := reg.Gauge("machine.outer_ring_utilization"); !ok || v != res.OuterRingUtilization {
		t.Errorf("utilization gauge = %v, %v", v, ok)
	}
	if v, ok := reg.Gauge("machine.outer_ring_mbps"); !ok || v != res.OuterRingMbps() {
		t.Errorf("mbps gauge = %v, %v", v, ok)
	}
}

// TestOuterRingMbpsZeroElapsed: the bandwidth figure of an empty run is
// zero, not NaN or a division panic.
func TestOuterRingMbpsZeroElapsed(t *testing.T) {
	var r Results
	if got := r.OuterRingMbps(); got != 0 {
		t.Errorf("OuterRingMbps with zero Elapsed = %g, want 0", got)
	}
	r.Stats.OuterRingBytes = 1 << 20
	if got := r.OuterRingMbps(); got != 0 {
		t.Errorf("OuterRingMbps with bytes but zero Elapsed = %g, want 0", got)
	}
}

// TestBroadcastAccountingUnderSmallBuffer pins down the relationships
// between the broadcast-join counters when one-page IP buffers force
// drops: recovery re-broadcasts are a subset of all broadcasts, and
// every drop is eventually recovered (the run completes correctly, so
// each ignored page was re-requested and re-broadcast).
func TestBroadcastAccountingUnderSmallBuffer(t *testing.T) {
	cat, qs := testDB(t, 0.5)
	_, res := runOne(t, cat, qs[2], Config{HW: smallHW(), IPs: 6, IPsPerInstruction: 6, IPBufferPages: 1})
	s := res.Stats
	if s.BroadcastsIgnored == 0 {
		t.Fatal("one-page buffers dropped nothing at this scale")
	}
	if s.RecoveryRequests == 0 {
		t.Error("drops occurred but no recovery re-broadcast was made")
	}
	if s.RecoveryRequests >= s.Broadcasts {
		t.Errorf("recovery re-broadcasts (%d) not a strict subset of broadcasts (%d)",
			s.RecoveryRequests, s.Broadcasts)
	}
}

// TestCacheAccountingKnownFlows pins the storage-hierarchy counters to
// the page-flow invariants of the three-level design: a page can only
// be read from the cache segment after being demoted into it, and can
// only spill to disk out of the cache, so reads and disk writes are
// both bounded by cache writes.
func TestCacheAccountingKnownFlows(t *testing.T) {
	cat, qs := testDB(t, 0.2)
	_, res := runOne(t, cat, qs[5], Config{HW: smallHW(), ICLocalPages: 2, ICCachePages: 4})
	s := res.Stats
	if s.CacheWrites == 0 {
		t.Fatal("tiny local memory demoted nothing to the cache")
	}
	if s.CacheReads > s.CacheWrites {
		t.Errorf("%d cache reads but only %d demotions into the cache", s.CacheReads, s.CacheWrites)
	}
	if s.DiskWrites > s.CacheWrites {
		t.Errorf("%d disk spills but only %d pages ever entered the cache", s.DiskWrites, s.CacheWrites)
	}
	if s.DiskReads == 0 {
		t.Error("leaf operands produced no disk reads")
	}
}

// failAfterWriter fails every Write from the n-th call on.
type failAfterWriter struct {
	n      int
	writes int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.n {
		return 0, errors.New("trace disk full")
	}
	return len(p), nil
}

// TestRunSurfacesSinkError: the first sink error must surface from Run
// rather than being silently dropped.
func TestRunSurfacesSinkError(t *testing.T) {
	cat, qs := testDB(t, 0.05)
	m, err := New(cat, Config{HW: smallHW(), Obs: obs.New(obs.NewTextSink(&failAfterWriter{n: 3}), nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(qs[2]); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "trace disk full") {
		t.Errorf("Run did not surface the sink error: %v", err)
	}
}

// BenchmarkMachine runs one benchmark query through the full packet
// protocol; the obs variant measures the nil-observer fast path against
// an attached text sink.
func BenchmarkMachine(b *testing.B) {
	cat, qs := testDB(b, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cat, Config{HW: smallHW()})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Submit(qs[2]); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMachineWithTextTrace(b *testing.B) {
	cat, qs := testDB(b, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		m, err := New(cat, Config{HW: smallHW(), Obs: obs.New(obs.NewTextSink(&buf), nil)})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Submit(qs[2]); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
