package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry(0)
	if r.Bucket() != DefaultBucket {
		t.Errorf("zero bucket not defaulted: %v", r.Bucket())
	}
	r.Inc("packets", 3)
	r.Inc("packets", 4)
	if got := r.Counter("packets"); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if got := r.Counter("absent"); got != 0 {
		t.Errorf("absent counter = %d", got)
	}
	r.SetGauge("util", 0.25)
	r.SetGauge("util", 0.75)
	if v, ok := r.Gauge("util"); !ok || v != 0.75 {
		t.Errorf("gauge = %v, %v", v, ok)
	}
}

// A handle is the registry's own counter or gauge: what it adds or sets
// is what Inc, SetGauge, Counter, Gauge and both exports see, and a nil
// registry hands out handles nobody reads.
func TestRegistryHandlesShareValues(t *testing.T) {
	r := NewRegistry(0)
	c, g := r.CounterHandle("hits"), r.GaugeHandle("in_use")
	c.Add(5)
	r.Inc("hits", 2)
	g.Set(3)
	if got := r.Counter("hits"); got != 7 || r.CounterHandle("hits") != c {
		t.Errorf("counter = %d through the registry, want 7 from one counter", got)
	}
	r.SetGauge("in_use", 4)
	if v, ok := r.Gauge("in_use"); !ok || v != 4 || r.GaugeHandle("in_use") != g {
		t.Errorf("gauge = %v, %v, want 4 from one gauge", v, ok)
	}
	var jsonl, prom bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"metric":"hits","type":"counter","value":7`, `"metric":"in_use","type":"gauge","value":4`} {
		if !strings.Contains(jsonl.String(), want) {
			t.Errorf("JSONL lacks %s:\n%s", want, jsonl.String())
		}
	}
	for _, want := range []string{"\nhits 7\n", "\nin_use 4\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export lacks %q:\n%s", want, prom.String())
		}
	}
	var none *Registry
	none.CounterHandle("hits").Add(1)
	none.GaugeHandle("in_use").Set(1)
}

func TestTimelineBucketsAndIntegral(t *testing.T) {
	r := NewRegistry(10 * time.Millisecond)
	r.Add("bytes", 0, 100)
	r.Add("bytes", 9*time.Millisecond, 50)  // same bucket as t=0
	r.Add("bytes", 10*time.Millisecond, 25) // next bucket
	r.Add("bytes", 35*time.Millisecond, 10) // bucket 3
	tl := r.Timeline("bytes")
	if tl == nil {
		t.Fatal("no timeline")
	}
	if len(tl.Vals) != 4 {
		t.Fatalf("buckets = %v", tl.Vals)
	}
	if tl.Vals[0] != 150 || tl.Vals[1] != 25 || tl.Vals[2] != 0 || tl.Vals[3] != 10 {
		t.Errorf("bucket values = %v", tl.Vals)
	}
	if got := tl.Integral(); got != 185 {
		t.Errorf("integral = %g, want 185", got)
	}
	// Rate: 150 bytes in a 10 ms bucket = 15000 bytes/sec.
	if got := tl.Rate(0); got != 15000 {
		t.Errorf("rate(0) = %g", got)
	}
	if tl.Rate(-1) != 0 || tl.Rate(99) != 0 {
		t.Error("out-of-range rate not zero")
	}
}

func TestSeriesSampling(t *testing.T) {
	r := NewRegistry(0)
	r.Sample("queue", 0, 1)
	r.Sample("queue", time.Second, 3)
	s := r.Series("queue")
	if s == nil || len(s.T) != 2 || s.V[1] != 3 {
		t.Fatalf("series = %+v", s)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc("n", 1)
				r.Add("tl", time.Duration(i)*time.Microsecond, 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Timeline("tl").Integral(); got != 8000 {
		t.Errorf("integral = %g, want 8000", got)
	}
}

func TestWriteJSONLDeterministicAndParseable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry(10 * time.Millisecond)
		r.Inc("z_counter", 9)
		r.Inc("a_counter", 1)
		r.SetGauge("util", 0.5)
		r.Sample("queue", time.Millisecond, 2)
		r.Add("bytes", 5*time.Millisecond, 2048)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("JSONL export not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines, want 5:\n%s", len(lines), a.String())
	}
	types := map[string]int{}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		types[m["type"].(string)]++
	}
	if types["counter"] != 2 || types["gauge"] != 1 || types["series"] != 1 || types["timeline"] != 1 {
		t.Errorf("type counts = %v", types)
	}
	// Counters sort by name: a_counter before z_counter.
	if !strings.Contains(lines[0], "a_counter") {
		t.Errorf("first line not a_counter: %s", lines[0])
	}
}
