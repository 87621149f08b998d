package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
	"dfdbm/internal/workload"
)

// counts reads the free list's meters: they agree whenever every run
// buffer taken has come home.
func (l *runList) counts() (gets, puts int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gets, l.puts
}

func recycler(eng *Engine) func(*relation.Page) error {
	return func(pg *relation.Page) error {
		pg.Release()
		return nil
	}
}

// benchScaleDB is the database of the service benchmark: scale 1.0 in
// 2 KB pages, r1 in 400 of them.
func benchScaleDB(t testing.TB) (*catalog.Catalog, []*query.Tree) {
	t.Helper()
	cat, qs, err := workload.Build(workload.Config{Seed: 1, Scale: 1, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return cat, qs
}

// TestEventStaysThreeWords: a controller's operand ring holds its whole
// backlog of events, so a fourth word is paid for 512 times per scan.
func TestEventStaysThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("event is %d bytes, want 24", got)
	}
}

// The arbitration-network accounting of the ten paper queries on
// testDB(0.02, 1000), {InstructionPackets, OperandBytes}, as metered
// before pages travelled in runs (one physical packet per logical one).
// Relation-level firing meters what page-level does; neither project
// strategy changes a number.
var (
	goldenPageTraffic = [10][2]int64{
		{18, 16000}, {7, 6000}, {34, 30600}, {20, 18000}, {19, 16000},
		{34, 31600}, {23, 19900}, {40, 34100}, {35, 30900}, {37, 29900},
	}
	goldenTupleTraffic = [10][2]int64{
		{160, 16000}, {60, 6000}, {392, 52400}, {258, 36600}, {182, 22400},
		{396, 52800}, {212, 24900}, {375, 43000}, {348, 41800}, {306, 32800},
	}
)

// closedFormTraffic computes what Section 3.3 says a query sends through
// the arbitration network, from the serial executor's cardinalities
// alone: one packet per non-empty input page of a unary node, one per
// (outer page, inner page) pair of a join, each carrying its operands'
// tuple bytes.
func closedFormTraffic(t *testing.T, cat *catalog.Catalog, tr *query.Tree, g Granularity, pageSize int) (packets, operand int64) {
	t.Helper()
	results, err := query.ExecuteSerialAll(cat, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// arrives reports how a node's output reaches its consumer: in how
	// many operand tokens, of how many tuple bytes in all.
	arrives := func(n *query.Node) (tokens, bytes int64) {
		rel := results[n.ID]
		tl := int64(n.Schema().TupleLen())
		card := int64(rel.Cardinality())
		switch {
		case g == TupleLevel:
			tokens = card
		case n.Kind == query.OpScan:
			for _, pg := range rel.Pages() {
				if !pg.Empty() {
					tokens++
				}
			}
		default: // compressed: every page but the last is full
			size := max(int64(pageSize), relation.PageHeaderLen+tl)
			capacity := (size - relation.PageHeaderLen) / tl
			tokens = (card + capacity - 1) / capacity
		}
		return tokens, card * tl
	}
	for _, n := range tr.Nodes() {
		switch n.Kind {
		case query.OpRestrict, query.OpProject:
			tokens, bytes := arrives(n.Inputs[0])
			packets += tokens
			operand += bytes
		case query.OpJoin:
			ot, ob := arrives(n.Inputs[0])
			it, ib := arrives(n.Inputs[1])
			packets += ot * it
			operand += it*ob + ot*ib
		}
	}
	return packets, operand
}

// TestRunAccountingClosedForm: the paper's accounting does not see runs.
// For every paper query at every granularity and both project
// strategies the logical meters equal the closed form and the golden
// numbers, and a trace carries one EvInstr per logical packet.
func TestRunAccountingClosedForm(t *testing.T) {
	cat, qs := testDB(t, 0.02, 1000)
	const overhead = 32
	for _, strategy := range []ProjectStrategy{ProjectSerialIC, ProjectPartitioned} {
		for _, g := range allGranularities() {
			golden := goldenPageTraffic
			if g == TupleLevel {
				golden = goldenTupleTraffic
			}
			var traced dispatchCounter
			eng := New(cat, Options{Granularity: g, Workers: 4, PageSize: 1000, Project: strategy,
				PacketOverhead: overhead, Obs: obs.New(&traced, nil)})
			for qi, q := range qs {
				before := traced.n.Load()
				res, err := eng.ExecuteStream(context.Background(), q, recycler(eng))
				if err != nil {
					t.Fatalf("query %d at %s/%s: %v", qi+1, g, strategy, err)
				}
				st := res.Stats
				packets, operand := closedFormTraffic(t, cat, q, g, 1000)
				if st.InstructionPackets != packets || st.OperandBytes != operand {
					t.Errorf("query %d at %s/%s: %d packets of %d operand bytes, closed form %d of %d",
						qi+1, g, strategy, st.InstructionPackets, st.OperandBytes, packets, operand)
				}
				if want := golden[qi]; st.InstructionPackets != want[0] || st.OperandBytes != want[1] {
					t.Errorf("query %d at %s/%s: %d packets of %d operand bytes, golden %d of %d",
						qi+1, g, strategy, st.InstructionPackets, st.OperandBytes, want[0], want[1])
				}
				if st.ArbitrationBytes != st.OperandBytes+overhead*st.InstructionPackets {
					t.Errorf("query %d at %s/%s: ArbitrationBytes %d is not OperandBytes + c·packets (%d + %d·%d)",
						qi+1, g, strategy, st.ArbitrationBytes, st.OperandBytes, overhead, st.InstructionPackets)
				}
				if got := traced.n.Load() - before; got != st.InstructionPackets {
					t.Errorf("query %d at %s/%s: %d EvInstr events for %d logical packets",
						qi+1, g, strategy, got, st.InstructionPackets)
				}
				if st.Dispatches < 1 || st.Dispatches > st.InstructionPackets {
					t.Errorf("query %d at %s/%s: %d dispatches for %d logical packets",
						qi+1, g, strategy, st.Dispatches, st.InstructionPackets)
				}
			}
		}
	}
}

// TestRunDispatchCounts: hand-offs per query are a meter. A 400-page
// restrict goes through the arbitration network in runs of up to
// relation.MaxRun pages; query 9's joins send a newcomer with a run of the
// other side; and the ten-query mix at the benchmark's geometry, where
// every logical packet used to be a physical one, stays under 1,500
// dispatches.
func TestRunDispatchCounts(t *testing.T) {
	cat, qs := benchScaleDB(t)
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4}) // DefaultPageSize intermediates, as served
	fetch, err := query.Bind(query.MustParse(`restrict(r1, val < 1000)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteStream(context.Background(), fetch, recycler(eng))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.InstructionPackets != 400 || st.Dispatches > st.InstructionPackets/8 {
		t.Errorf("restrict of r1: %d dispatches for %d packets, want 400 packets in at most an eighth as many dispatches",
			st.Dispatches, st.InstructionPackets)
	}
	var packets, dispatches int64
	for qi, q := range qs {
		res, err := eng.ExecuteStream(context.Background(), q, recycler(eng))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		packets += st.InstructionPackets
		dispatches += st.Dispatches
		if qi == 8 && st.Dispatches > st.InstructionPackets/4 {
			t.Errorf("query 9: %d dispatches for %d packets, want at most a quarter", st.Dispatches, st.InstructionPackets)
		}
		t.Logf("query %d: %d packets in %d dispatches, %d result packets", qi+1, st.InstructionPackets, st.Dispatches, st.ResultPackets)
	}
	if dispatches > 1500 {
		t.Errorf("ten-query mix: %d dispatches for %d packets, want at most 1500", dispatches, packets)
	}
}

// TestRunBuffersComeHome: every run buffer taken from the engine's free
// list is back when Execute returns — after each paper query at every
// granularity, after a query cancelled mid-scan, and after an emit
// error.
func TestRunBuffersComeHome(t *testing.T) {
	home := func(eng *Engine, what string) {
		t.Helper()
		if gets, puts := eng.runs.counts(); gets != puts || gets == 0 {
			t.Errorf("%s: %d run buffers taken, %d given back", what, gets, puts)
		}
	}
	cat, qs := testDB(t, 0.02, 1000)
	for _, g := range allGranularities() {
		eng := New(cat, Options{Granularity: g, Workers: 4, PageSize: 1000})
		for qi, q := range qs {
			if _, err := eng.ExecuteStream(context.Background(), q, recycler(eng)); err != nil {
				t.Fatal(err)
			}
			home(eng, fmt.Sprintf("query %d at %s", qi+1, g))
		}
	}

	big, _ := testDB(t, 0.5, 1000) // r1 in 445 pages
	tr, err := query.Bind(query.MustParse(`restrict(r1, val < 900)`), big)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		eng := New(big, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000})
		ctx, cancel := context.WithCancel(context.Background())
		_, err := eng.ExecuteStream(ctx, tr, func(pg *relation.Page) error {
			cancel()
			pg.Release()
			return nil
		})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		home(eng, "cancelled mid-scan")

		errEmit := errors.New("emit failed")
		if _, err := eng.ExecuteStream(context.Background(), tr, func(*relation.Page) error {
			return errEmit
		}); !errors.Is(err, errEmit) {
			t.Fatalf("emit error came back as %v", err)
		}
		home(eng, "emit error")
	}
}

// TestRunSlowStart: a scan's runs start at one page and double, so the
// first result is out before the controller has dispatched the feeder's
// first four runs (1 + 2 + 4 + 8 pages). Every tuple passes, so each
// input page fills an output page; a first run of relation.MaxRun pages
// would hold the first page back for relation.MaxRun packets.
func TestRunSlowStart(t *testing.T) {
	cat, _ := testDB(t, 0.5, 1000)
	tr, err := query.Bind(query.MustParse(`restrict(r1, val >= 0)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := dispatchCounter{delay: 200 * time.Microsecond}
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000, Obs: obs.New(&dispatched, nil)})
	atFirst := int64(-1)
	res, err := eng.ExecuteStream(context.Background(), tr, func(pg *relation.Page) error {
		if atFirst < 0 {
			atFirst = dispatched.n.Load()
		}
		pg.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InstructionPackets < 300 {
		t.Fatalf("restrict dispatched %d packets; the test needs a long scan", res.Stats.InstructionPackets)
	}
	if atFirst < 1 || atFirst >= 1+2+4+8 {
		t.Errorf("first page emitted after %d instruction packets, want within the first four runs (fewer than 15)", atFirst)
	}
}

// TestRunAllocCeilings: runs buy nothing per packet, and a warm run buys
// next to nothing per query: its run record, worker and kernel states,
// event queues and arbitration channel come parked from the last run. A
// warm 400-page restrict allocates at most 11 times (84 before run
// records were parked) and a warm paper query 3 — a join of two
// restricts, on serving-size pages, where each worker's join builds
// fewer tables than a parked JoinState keeps — at most 19. What is left
// is a goroutine start per worker, controller and scan, the run's stop
// channel, the bound and compiled predicates, and the Result. A join
// newcomer is paired with a 700-page side — 22 packets — without one
// allocation: a packet's operands are a view of the buffer, not a slice
// of their own.
func TestRunAllocCeilings(t *testing.T) {
	cat, qs := benchScaleDB(t)
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 2048})
	fetch, err := query.Bind(query.MustParse(`restrict(r1, val < 1000)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	served := New(cat, Options{Granularity: PageLevel, Workers: 4})
	for _, c := range []struct {
		what string
		eng  *Engine
		q    *query.Tree
		max  float64
	}{{"warm 400-page restrict", eng, fetch, 11}, {"warm paper query 3", served, qs[2], 19}} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := c.eng.ExecuteStream(context.Background(), c.q, recycler(c.eng)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max && !raceEnabled {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.what, allocs, c.max)
		}
	}

	tr, err := query.Bind(query.MustParse(`join(r1, r2, k1 = k1)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	run := newEngineRun(context.Background(), eng)
	if err := run.build(tr.Root(), &resultSink{run: run}); err != nil {
		t.Fatal(err)
	}
	drained := make(chan int)
	go func() {
		n := 0
		for range run.arb {
			n++
		}
		drained <- n
	}()
	r1, _ := cat.Get("r1")
	r2, _ := cat.Get("r2")
	join := run.nodes[0]
	rounds := 0
	allocs := testing.AllocsPerRun(10, func() {
		join.fire(r2.Pages(), r1.Page(0), 0)
		rounds++
	})
	close(run.arb)
	if want := rounds * ((r2.NumPages() + relation.MaxRun - 1) / relation.MaxRun); <-drained != want || want == rounds {
		t.Errorf("pairing one page with %d sent the wrong number of packets (want %d)", r2.NumPages(), want)
	}
	if allocs != 0 {
		t.Errorf("pairing one page with %d: %.0f allocations, want 0", r2.NumPages(), allocs)
	}
}

// startTallied is run.start with workers that show every packet to
// tally before executing it, and feed in place of the scan feeders.
func startTallied(run *engineRun, tally func(task), feed func()) {
	for _, w := range run.workers {
		run.wg.Add(1)
		go func(w *workerState) {
			defer run.wg.Done()
			w.aim(run.nodes)
			for {
				select {
				case t := <-run.arb:
					tally(t)
					w.exec(t)
				case <-run.stopped:
					return
				}
			}
		}(w)
	}
	for _, ne := range run.nodes {
		run.wg.Add(1)
		go ne.runIC()
	}
	run.wg.Add(1)
	go func() {
		defer run.wg.Done()
		feed()
	}()
}

// tuplePairs is the number of (outer tuple, inner tuple) pairs a join
// packet offers its kernel.
func tuplePairs(t task) int64 {
	var n int64
	for _, pg := range t.pages {
		n += int64(pg.TupleCount())
	}
	return n * int64(t.with.TupleCount())
}

// feedCopies is one feeder in place of a join's two scans: it delivers
// free-list copies of both inputs' pages in a seeded random interleaving,
// singly (to be coalesced with what is queued behind them) or in runs,
// and reports how many copies it made.
func feedCopies(t *testing.T, eng *Engine, join *nodeExec, inputs [2]*relation.Relation, rng *rand.Rand, copies *atomic.Int64) func() {
	return func() {
		left := [2][]*relation.Page{inputs[0].Pages(), inputs[1].Pages()}
		for len(left[0])+len(left[1]) > 0 {
			side := rng.Intn(2)
			if len(left[side]) == 0 {
				side = 1 - side
			}
			k := min(1+rng.Intn(relation.MaxRun), len(left[side]))
			in := &join.inlets[side]
			pr := eng.runs.get()
			for _, src := range left[side][:k] {
				pg, err := relation.Get(src.PageSize(), src.TupleLen())
				if err != nil {
					t.Error(err)
					return
				}
				src.EachRaw(func(raw []byte) bool {
					if err := pg.AppendRaw(raw); err != nil {
						t.Error(err)
					}
					return true
				})
				copies.Add(1)
				if rng.Intn(2) == 0 {
					in.send(pg)
				} else {
					pr.add(pg)
				}
			}
			if pr.n > 0 {
				in.sendRun(pr)
			} else {
				eng.runs.put(pr)
			}
			if left[side] = left[side][k:]; len(left[side]) == 0 {
				in.done()
			}
			if rng.Intn(4) == 0 {
				runtime.Gosched()
			}
		}
	}
}

// TestRunJoinPairsExactlyOnce: however the pages of a join's two inputs
// interleave, and whether they arrive singly or in runs, every (outer
// tuple, inner tuple) pair is offered to the kernel exactly once. The
// 300-byte operand pages are smaller than the engine's, so the join packs
// them into 1000-byte pages as they arrive: the pairs are counted over
// the packed operands the packets carry, and they sum to |outer|·|inner|.
// The operands are copies from the free list, so with recycled pages
// poisoned a page read after it was recycled shows as wrong tuples.
func TestRunJoinPairsExactlyOnce(t *testing.T) {
	cat, _ := testDB(t, 0.02, 300) // two tuples to a page: long page lists
	tr, err := query.Bind(query.MustParse(`join(r2, r3, k1 = k1)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.ExecuteSerial(cat, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	outer, _ := cat.Get("r2")
	inner, _ := cat.Get("r3")
	if outer.NumPages() <= relation.MaxRun || inner.NumPages() <= relation.MaxRun {
		t.Fatalf("inputs of %d and %d pages; both must exceed one run", outer.NumPages(), inner.NumPages())
	}
	allPairs := int64(outer.Cardinality()) * int64(inner.Cardinality())
	eng := New(cat, Options{Granularity: PageLevel, Workers: 4, PageSize: 1000})
	for seed := int64(1); seed <= 25; seed++ {
		run := newEngineRun(context.Background(), eng)
		got := relation.MustNew("joined", tr.Root().Schema(), 1000)
		run.sink = resultSink{run: run, emit: got.AppendPage}
		if err := run.build(tr.Root(), &run.sink); err != nil {
			t.Fatal(err)
		}
		var copies, pairs atomic.Int64
		startTallied(run, func(tk task) { pairs.Add(tuplePairs(tk)) },
			feedCopies(t, eng, run.nodes[0], [2]*relation.Relation{outer, inner}, rand.New(rand.NewSource(seed)), &copies))
		<-run.stopped
		err, st := run.errValue(), run.snapshotStats() // shutdown parks the run
		run.shutdown()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.EqualMultiset(want) {
			t.Errorf("seed %d: joined %d tuples, serial %d", seed, got.Cardinality(), want.Cardinality())
		}
		if got := pairs.Load(); got != allPairs {
			t.Errorf("seed %d: packets offered %d tuple pairs, want |outer|·|inner| = %d", seed, got, allPairs)
		}
		if st.InstructionPackets >= int64(outer.NumPages()*inner.NumPages()) {
			t.Errorf("seed %d: %d instruction packets for %d unpacked page pairs: nothing was packed",
				seed, st.InstructionPackets, outer.NumPages()*inner.NumPages())
		}
		if gets, puts := eng.runs.counts(); gets != puts {
			t.Errorf("seed %d: %d run buffers taken, %d given back", seed, gets, puts)
		}
	}
}

// TestRunJoinPacksOperands: a join fed pages smaller than the engine's
// packs them into engine-size pages, one open page per input, so it pairs
// ⌈|outer|/c⌉·⌈|inner|/c⌉ packed pages (c tuples to an engine page) at
// page and relation level alike. An original goes back to the free list
// as soon as it is packed — at relation level every one of them before
// the first packet leaves — and once the run is done every page it took
// is back: the originals, the packed pages and the result's.
func TestRunJoinPacksOperands(t *testing.T) {
	cat, _ := testDB(t, 0.02, 300)
	tr, err := query.Bind(query.MustParse(`join(r2, r3, k1 = k1)`), cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query.ExecuteSerial(cat, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	outer, _ := cat.Get("r2")
	inner, _ := cat.Get("r3")
	packed := func(r *relation.Relation) int64 {
		c := (1000 - relation.PageHeaderLen) / r.Schema().TupleLen()
		return int64((r.Cardinality() + c - 1) / c)
	}
	for _, g := range []Granularity{PageLevel, RelationLevel} {
		eng := New(cat, Options{Granularity: g, Workers: 4, PageSize: 1000})
		for seed := int64(1); seed <= 5; seed++ {
			before := relation.PageStats()
			run := newEngineRun(context.Background(), eng)
			got := relation.MustNew("joined", tr.Root().Schema(), 1000)
			run.sink = resultSink{run: run, emit: got.LendPage}
			if err := run.build(tr.Root(), &run.sink); err != nil {
				t.Fatal(err)
			}
			var copies atomic.Int64
			var firstOnce sync.Once
			recycledAtFirst := int64(-1)
			startTallied(run, func(task) {
				firstOnce.Do(func() { recycledAtFirst = relation.PageStats().Recycled - before.Recycled })
			}, feedCopies(t, eng, run.nodes[0], [2]*relation.Relation{outer, inner}, rand.New(rand.NewSource(seed)), &copies))
			<-run.stopped
			err, st := run.errValue(), run.snapshotStats() // shutdown parks the run
			run.shutdown()
			if err != nil {
				t.Fatalf("%s seed %d: %v", g, seed, err)
			}
			if !got.EqualMultiset(want) {
				t.Errorf("%s seed %d: joined %d tuples, serial %d", g, seed, got.Cardinality(), want.Cardinality())
			}
			if pairs := packed(outer) * packed(inner); st.InstructionPackets != pairs {
				t.Errorf("%s seed %d: %d instruction packets, want %d packed page pairs", g, seed, st.InstructionPackets, pairs)
			}
			if g == RelationLevel && recycledAtFirst < copies.Load() {
				t.Errorf("%s seed %d: %d of %d originals recycled when the first packet left", g, seed, recycledAtFirst, copies.Load())
			}
			relation.ReleaseAll(got.Pages()) // the emitted references
			after := relation.PageStats()
			if gets, back := after.Hits+after.Misses-before.Hits-before.Misses, after.Recycled-before.Recycled; gets != back {
				t.Errorf("%s seed %d: the run took %d pages and gave back %d", g, seed, gets, back)
			}
		}
	}
}

// TestAppendRootGivesSourceBack: an append's source runs on the engine
// into a scratch relation of borrowed pages, which go back once the
// record's images hold the tuples, so every page the run took is
// recycled.
func TestAppendRootGivesSourceBack(t *testing.T) {
	cat, _ := testDB(t, 0.02, 1000)
	cat.Put(relation.MustNew("sink_rel", workload.PaperSchema(), 1000))
	tr, err := query.Bind(query.MustParse(`append(sink_rel, restrict(r14, val < 500))`), cat)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(cat, Options{Granularity: PageLevel, PageSize: 1000})
	before := relation.PageStats()
	if _, err := write(eng, cat, tr); err != nil {
		t.Fatal(err)
	}
	st := relation.PageStats()
	if gets := st.Hits + st.Misses - before.Hits - before.Misses; gets == 0 || gets != st.Recycled-before.Recycled {
		t.Errorf("append took %d pages and handed back %d", gets, st.Recycled-before.Recycled)
	}
}
