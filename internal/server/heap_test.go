package server

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/wal"
)

// TestHeapLargerThanMemoryAcceptance is the storage subsystem's
// acceptance bar: a heap-backed server whose buffer pool (8 frames of
// 2KiB pages) is far smaller than its largest relation must answer
// restrict, project, and join queries identically to a plain
// in-memory server fed the same writes, with the pool demonstrably
// evicting — and after kill -9 (simulated by an unflushed close) the
// recovered relation is byte-identical to the in-memory reference.
func TestHeapLargerThanMemoryAcceptance(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	o := obs.New(nil, reg)
	dir := t.TempDir()
	l, cat := openDurable(t, dir, wal.Options{
		Obs:  o,
		Heap: &wal.HeapOptions{Frames: 8},
	})
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1, Obs: o})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Reference: the same seed catalog, fully resident, no WAL.
	refCat, _ := testDB(t, 0.05)
	rs := startServer(t, refCat, Config{})
	rc, err := Dial(rs.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Grow r15 well past the 8-frame budget on both servers. Appends
	// are deterministic, so the heap file and the resident relation
	// must stay byte-identical page by page.
	writes := []string{
		`append(r15, restrict(r1, val < 400))`,
		`append(r15, restrict(r2, val < 400))`,
		`append(r15, restrict(r3, val < 400))`,
		`append(r15, restrict(r4, val < 400))`,
		`append(r15, restrict(r5, val < 400))`,
		`delete(r15, val < 30)`,
		`append(r15, restrict(r6, val < 400))`,
		`append(r15, restrict(r7, val < 400))`,
	}
	for _, q := range writes {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatalf("heap server %s: %v", q, err)
		}
		if _, err := rc.Query(context.Background(), q); err != nil {
			t.Fatalf("reference server %s: %v", q, err)
		}
	}
	r15, err := cat.Get("r15")
	if err != nil {
		t.Fatal(err)
	}
	if !r15.Stored() {
		t.Fatal("r15 is not heap-backed")
	}
	if r15.NumPages() <= 8 {
		t.Fatalf("r15 has %d pages; working set does not exceed the 8-frame pool", r15.NumPages())
	}

	// Read queries across the restrict/project/join surface, answered
	// through the buffer pool, must match the in-memory reference.
	reads := []string{
		`restrict(r15, val < 200)`,
		`project(restrict(r15, val < 300), [k1, k2])`,
		`join(restrict(r15, val < 350), restrict(r2, val < 120), k1 = k1)`,
	}
	for _, q := range reads {
		got, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("heap server %s: %v", q, err)
		}
		want, err := rc.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("reference server %s: %v", q, err)
		}
		if !got.Relation.EqualMultiset(want.Relation) {
			t.Fatalf("%s: heap-backed result differs from in-memory reference (%d vs %d tuples)",
				q, got.Relation.Cardinality(), want.Relation.Cardinality())
		}
	}
	if ev := reg.Counter("bufpool.evictions"); ev == 0 {
		t.Fatal("bufpool.evictions = 0: the pool never evicted under a larger-than-memory working set")
	}

	// The logical state must equal the in-memory reference as a
	// multiset (the engine's parallel dataflow emits append payloads in
	// a nondeterministic tuple order, so two servers agree on content,
	// not on page bytes).
	ref15, err := refCat.Get("r15")
	if err != nil {
		t.Fatal(err)
	}
	if !r15.EqualMultiset(ref15) {
		t.Fatalf("heap-backed r15 (%d tuples) differs from in-memory reference (%d tuples)",
			r15.Cardinality(), ref15.Cardinality())
	}

	// Byte-identity is pinned against the live pre-crash state: the
	// WAL records fix the tuple order, so recovery must rebuild every
	// page of r15 bit for bit.
	live := make([][]byte, r15.NumPages())
	for i := range live {
		pg, err := r15.CopyPage(i)
		if err != nil {
			t.Fatalf("live page %d: %v", i, err)
		}
		live[i] = pg.Marshal()
	}

	// Unflushed close == crash; recovery replays the WAL tail into the
	// heap file and must reproduce the same bytes.
	c.Close()
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, cat2, rv, err := wal.Open(dir, wal.Options{Heap: &wal.HeapOptions{Frames: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rv.Fresh {
		t.Fatal("recovery reported fresh")
	}
	rec15, err := cat2.Get("r15")
	if err != nil {
		t.Fatal(err)
	}
	if rec15.NumPages() != len(live) {
		t.Fatalf("recovered r15 has %d pages, live had %d", rec15.NumPages(), len(live))
	}
	for i := range live {
		pg, err := rec15.CopyPage(i)
		if err != nil {
			t.Fatalf("recovered page %d: %v", i, err)
		}
		if !bytes.Equal(pg.Marshal(), live[i]) {
			t.Fatalf("recovered page %d is not byte-identical to the pre-crash state", i)
		}
	}
	if !rec15.EqualMultiset(ref15) {
		t.Fatal("recovered r15 differs from the in-memory reference as a multiset")
	}
}

// TestHeapAdoptedBlobsStayTheirOwners: a decoded page adopts its blob —
// a client's result pages are the payloads of the frames they came in,
// and an applied append installs the record's own page images in the
// buffer pool. Neither may be reached again by whoever produced the
// bytes: with recycled pages poisoned (TestMain) and the pool churning
// under further appends and scans, a result read earlier must stay what
// it was, and the installed pages must read back as the records wrote
// them.
func TestHeapAdoptedBlobsStayTheirOwners(t *testing.T) {
	dir := t.TempDir()
	l, cat := openDurable(t, dir, wal.Options{Heap: &wal.HeapOptions{Frames: 8}})
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := func(q string) *QueryResult {
		t.Helper()
		res, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	query(`append(r15, restrict(r1, val < 400))`)
	first := query(`restrict(r15, val >= 0)`)
	keys := first.Relation.SortedKeys()
	if len(keys) == 0 {
		t.Fatal("r15 is empty after an append")
	}
	for j := 2; j <= 5; j++ {
		query(fmt.Sprintf(`append(r15, restrict(r%d, val < 400))`, j))
		query(`project(restrict(r15, val < 300), [k1, k2])`)
	}
	if after := first.Relation.SortedKeys(); !slices.Equal(after, keys) {
		t.Fatal("a result relation changed after later queries on its connection")
	}
	// The oldest appended tuples, installed from an adopted record image
	// and since evicted, written back and read again, are still there.
	again := query(`restrict(r15, val >= 0)`)
	have := make(map[string]int, again.Relation.Cardinality())
	for _, k := range again.Relation.SortedKeys() {
		have[k]++
	}
	for _, k := range keys {
		if have[k]--; have[k] < 0 {
			t.Fatal("a tuple of the first append is missing from r15 after pool churn")
		}
	}
}

// TestDurableMetricsHaveHelp: after a cold-shaped query — a scan of a
// stored relation through a pool it overflows — every metric a durable
// server has registered exports a # HELP line of its own, not the
// registry's fallback.
func TestDurableMetricsHaveHelp(t *testing.T) {
	reg := obs.NewRegistry(time.Second)
	o := obs.New(nil, reg)
	l, cat := openDurable(t, t.TempDir(), wal.Options{Obs: o, Heap: &wal.HeapOptions{Frames: 8}})
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1, Obs: o})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range []string{`append(r15, restrict(r1, val < 400))`, `restrict(r15, val < 2)`} {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if reg.Counter("bufpool.evictions") == 0 {
		t.Fatal("the scan never evicted: not a cold query")
	}
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	helped := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		helped++
		if name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " "); strings.HasPrefix(help, "Registry metric ") {
			t.Errorf("%s has only the fallback HELP text", name)
		}
	}
	if helped == 0 {
		t.Fatal("the export has no HELP lines")
	}
}
