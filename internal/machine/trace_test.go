package machine

import (
	"bytes"
	"strings"
	"testing"

	"dfdbm/internal/obs"
)

func TestTraceRecordsProtocol(t *testing.T) {
	cat, qs := testDB(t, 0.05)
	var buf bytes.Buffer
	cfg := Config{HW: smallHW(), Obs: obs.New(obs.NewTextSink(&buf), nil)}
	m, err := New(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(qs[2]); err != nil { // 1 join, 2 restricts
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	for _, want := range []string{
		"MC: admit query 0",
		"assign restrict",
		"assign join",
		"MC: grant IP",
		"-> IP",
		"done",
		"instruction join of query 0 complete",
		"MC: query 0 finished",
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// Every line carries a time prefix.
	for _, line := range strings.Split(strings.TrimSpace(trace), "\n") {
		if !strings.HasPrefix(line, "[") {
			t.Fatalf("untimed trace line: %q", line)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	cat, qs := testDB(t, 0.02)
	got, _ := runOne(t, cat, qs[0], Config{HW: smallHW()})
	if got == nil {
		t.Fatal("no result")
	}
	// Nothing to assert beyond "no panic with nil Obs"; the tracing
	// nil-check is the point.
}
