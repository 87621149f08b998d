package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/pred"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// event is one message delivered to an instruction controller.
type event struct {
	kind  evKind
	input int            // evPage, evInputDone
	page  *relation.Page // evPage, evResult; evTaskDone's last page or nil
}

type evKind uint8

const (
	evPage evKind = iota + 1
	evInputDone
	// evResult carries one result page of a task still running;
	// evTaskDone ends the task and carries its last page, if any. A task
	// with at most one page of output — every restrict and project, most
	// join pairs — is one event.
	evResult
	evTaskDone
)

// task is one instruction packet: a node plus the operand pages sent to
// a processor. Joins carry two operands (outer page, inner page); the
// unary operators carry one and leave inner nil. It travels by value:
// a packet costs no allocation.
type task struct {
	node         *nodeExec
	outer, inner *relation.Page
}

// outlet is where a producer delivers its output stream: either a
// consumer node's input, or the engine's result sink.
type outlet struct {
	send func(pg *relation.Page)
	done func()
}

// engineRun is the state of one query execution: the arbitration
// network, the worker pool, the per-node controllers, and the meters.
type engineRun struct {
	eng  *Engine
	tree *query.Tree
	// obs and t0 stamp structured events with real time since the
	// execution started (the concurrent engine has no virtual clock).
	obs *obs.Observer
	t0  time.Time

	arb      chan task
	stopped  chan struct{}
	stopOnce sync.Once
	errMu    sync.Mutex
	err      error

	wg      sync.WaitGroup
	feeders []func()
	nodes   []*nodeExec
	chans   []*infChan

	// plan is the adaptive pipeline-vs-materialize plan for this run
	// (nil unless Options.Adaptive); stMatEdges counts the edges it
	// chose to materialize.
	plan       *query.Plan
	stMatEdges int64

	stInstr, stOperand, stArb int64
	stResPkts, stResBytes     int64
	stPages                   int64

	// kstats aggregates join-kernel counters across this run's workers;
	// pool0 is the engine pool's counters at run start, so the snapshot
	// reports per-run deltas.
	kstats relalg.KernelStats
	pool0  relation.PoolStats

	// span is the run's query span when Config.Obs has spans enabled.
	// The concurrent engine records spans in real time; worker exec
	// spans attribute wall-clock busy intervals to their node.
	span *obs.Span
	// parent, when the caller attached an obs.SpanContext to the
	// execution context, is the span the run's query span nests under
	// (the server's execute-stage span), and qid is the query id
	// stamped on the run's spans and events (-1 standalone). A span
	// context also supplies the epoch, so engine timestamps land on
	// the caller's clock and the whole tree shares one timebase.
	parent *obs.Span
	qid    int
}

func newEngineRun(ctx context.Context, e *Engine, t *query.Tree) *engineRun {
	r := &engineRun{
		eng:     e,
		tree:    t,
		obs:     e.opts.Obs,
		t0:      time.Now(),
		qid:     -1,
		arb:     make(chan task, e.opts.Workers*e.opts.CellsPerWorker),
		stopped: make(chan struct{}),
		pool0:   e.pool.Stats(),
	}
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		r.parent = sc.Parent
		r.qid = sc.Query
		if !sc.Epoch.IsZero() {
			r.t0 = sc.Epoch
		}
	}
	return r
}

// recycle hands a dead intermediate page back to the engine pool. Put
// is a no-op for catalog pages and pages retained by a relation, so
// callers only guarantee no *other engine component* still reads pg.
func (r *engineRun) recycle(pg *relation.Page) {
	r.eng.pool.Put(pg)
}

// event emits one structured event stamped with real time since the
// execution started; safe from any goroutine of the run.
func (r *engineRun) event(kind obs.EventKind, comp string, instr, bytes int, format string, args ...interface{}) {
	o := r.obs
	if !o.Enabled() {
		return
	}
	o.Emit(obs.Event{
		TS:    time.Since(r.t0),
		Kind:  kind,
		Comp:  comp,
		Query: r.qid,
		Instr: instr,
		Page:  -1,
		Bytes: bytes,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// observe accumulates v into the named real-time timeline.
func (r *engineRun) observe(name string, v float64) {
	if o := r.obs; o.MetricsOn() {
		o.Registry().Add(name, time.Since(r.t0), v)
	}
}

// tracing and spansOn guard event and span call sites, so the disabled
// path costs one nil check and zero allocations per event.
func (r *engineRun) tracing() bool { return r.obs.Enabled() }
func (r *engineRun) spansOn() bool { return r.obs.SpansOn() }

// now is the run-relative real-time clock spans are stamped with.
func (r *engineRun) now() time.Duration { return time.Since(r.t0) }

func (r *engineRun) fail(err error) {
	if err == nil {
		return
	}
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.stop()
}

func (r *engineRun) stop() {
	r.stopOnce.Do(func() { close(r.stopped) })
}

func (r *engineRun) errValue() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

func (r *engineRun) snapshotStats() Stats {
	ks := r.kstats.Load()
	ps := r.eng.pool.Stats()
	return Stats{
		InstructionPackets: atomic.LoadInt64(&r.stInstr),
		OperandBytes:       atomic.LoadInt64(&r.stOperand),
		ArbitrationBytes:   atomic.LoadInt64(&r.stArb),
		ResultPackets:      atomic.LoadInt64(&r.stResPkts),
		ResultBytes:        atomic.LoadInt64(&r.stResBytes),
		PagesMoved:         atomic.LoadInt64(&r.stPages),
		PoolHits:           ps.Hits - r.pool0.Hits,
		PoolMisses:         ps.Misses - r.pool0.Misses,
		PagesRecycled:      ps.Recycled - r.pool0.Recycled,
		HashProbes:         ks.HashProbes,
		HashBuilds:         ks.HashBuilds,
		HashTableHits:      ks.TableHits,
		NestedPairs:        ks.NestedPairs,
		MaterializedEdges:  atomic.LoadInt64(&r.stMatEdges),
	}
}

// build wires the subtree rooted at n to the given outlet, creating a
// controller per operator node and a feeder per scan leaf.
func (r *engineRun) build(n *query.Node, out outlet) error {
	if n.Kind == query.OpScan {
		rel, err := r.eng.cat.Get(n.Rel)
		if err != nil {
			return err
		}
		r.feeders = append(r.feeders, func() { r.feedScan(rel, out) })
		return nil
	}

	ne := &nodeExec{
		run:        r,
		id:         len(r.nodes),
		node:       n,
		events:     newInfChan(),
		out:        out,
		numInputs:  len(n.Inputs),
		inputsDone: make([]bool, len(n.Inputs)),
	}
	if r.plan != nil {
		// Adaptive materialization: a materialized input buffers until
		// its producer completes before any instruction fires on it.
		// Scan inputs are stored relations — already at rest — so only
		// operator-produced edges count.
		for i, in := range n.Inputs {
			if in.Kind != query.OpScan && r.plan.Materialized(in.ID) {
				ne.matInput[i] = true
				atomic.AddInt64(&r.stMatEdges, 1)
			}
		}
	}
	r.nodes = append(r.nodes, ne)
	r.chans = append(r.chans, ne.events)

	ne.outTupleLen = n.Schema().TupleLen()
	if r.eng.opts.Granularity == TupleLevel {
		ne.outPageSize = relation.PageHeaderLen + ne.outTupleLen
	} else {
		ne.outPageSize = r.eng.opts.PageSize
		if min := relation.PageHeaderLen + ne.outTupleLen; ne.outPageSize < min {
			ne.outPageSize = min
		}
	}

	switch n.Kind {
	case query.OpRestrict:
		b, err := n.Pred.Bind(n.Inputs[0].Schema())
		if err != nil {
			return err
		}
		ne.boundPred = b

	case query.OpJoin:
		b, err := n.Join.Bind(n.Inputs[0].Schema(), n.Inputs[1].Schema())
		if err != nil {
			return err
		}
		ne.boundJoin = b

	case query.OpProject:
		p, err := relalg.NewProjector(n.Inputs[0].Schema(), n.Cols...)
		if err != nil {
			return err
		}
		ne.projector = p
		if r.eng.opts.Project == ProjectPartitioned {
			ne.parts = make([]dedupPart, r.eng.opts.Workers)
			for i := range ne.parts {
				ne.parts[i].d = relalg.NewDedup()
			}
		} else {
			ne.dedup = relalg.NewDedup()
			pg, err := relation.NewPooledPaginator(ne.outPageSize, ne.outTupleLen, r.eng.pool)
			if err != nil {
				return err
			}
			ne.icPaginator = pg
		}

	default:
		return fmt.Errorf("core: %s nodes cannot appear inside a stream subtree", n.Kind)
	}

	for i, in := range n.Inputs {
		if err := r.build(in, ne.inlet(i)); err != nil {
			return err
		}
	}
	return nil
}

func (r *engineRun) start() {
	if r.spansOn() {
		r.span = r.obs.Spans().Begin(obs.SpanQuery, r.parent, r.now(),
			"engine", "query", r.qid, -1, -1)
		for _, ne := range r.nodes {
			ne.span = r.obs.Spans().Begin(obs.SpanInstr, r.span, r.now(),
				fmt.Sprintf("node%d", ne.id),
				fmt.Sprintf("%s node%d", ne.node.Kind, ne.id), r.qid, ne.id, -1)
		}
	}
	for i := 0; i < r.eng.opts.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	for _, ne := range r.nodes {
		r.wg.Add(1)
		go ne.runIC()
	}
	for _, f := range r.feeders {
		r.wg.Add(1)
		f := f
		go func() {
			defer r.wg.Done()
			f()
		}()
	}
}

func (r *engineRun) shutdown() {
	r.stop()
	for _, c := range r.chans {
		c.Stop()
	}
	r.wg.Wait()
	if r.spansOn() {
		// End is idempotent, so node spans already closed by finish stay
		// as they were; a failed run's open spans close at shutdown time.
		end := r.now()
		for _, ne := range r.nodes {
			if ne.span != nil {
				r.obs.Spans().End(ne.span, end)
			}
		}
		if r.span != nil {
			r.obs.Spans().End(r.span, end)
		}
	}
}

// feedScan streams the pages of a source relation to the consumer. At
// tuple granularity each page is split into single-tuple tokens.
// EachPage walks disk-backed relations one pinned buffer-pool frame
// at a time, so a scan's footprint is one frame regardless of the
// relation's size — working sets larger than RAM execute correctly,
// just slower.
func (r *engineRun) feedScan(rel *relation.Relation, out outlet) {
	tupleLevel := r.eng.opts.Granularity == TupleLevel
	errStopped := fmt.Errorf("core: run stopped")
	err := rel.EachPage(func(pg *relation.Page) error {
		select {
		case <-r.stopped:
			return errStopped
		default:
		}
		if !tupleLevel {
			atomic.AddInt64(&r.stPages, 1)
			out.send(pg)
			return nil
		}
		n := pg.TupleCount()
		for i := 0; i < n; i++ {
			one, err := r.eng.pool.Get(relation.PageHeaderLen+pg.TupleLen(), pg.TupleLen())
			if err != nil {
				return err
			}
			if err := one.AppendRaw(pg.RawTuple(i)); err != nil {
				return err
			}
			atomic.AddInt64(&r.stPages, 1)
			out.send(one)
		}
		return nil
	})
	if err != nil {
		if err != errStopped {
			r.fail(err)
		}
		return
	}
	out.done()
}

// dedupPart is one partition of the parallel duplicate-elimination set.
type dedupPart struct {
	mu sync.Mutex
	d  *relalg.Dedup
}

// nodeExec is one operator node's instruction controller plus its
// execution state.
type nodeExec struct {
	run *engineRun
	// id numbers the node's controller within the run (the component
	// "node<id>" of its structured events).
	id   int
	node *query.Node
	span *obs.Span

	events *infChan
	out    outlet

	numInputs  int
	inputsDone []bool
	doneCount  int
	dispatched int
	completed  int

	// buf holds operand pages: at page/tuple level only until they have
	// been paired (joins keep everything, as nested loops requires); at
	// relation level everything until the inputs complete.
	buf [2][]*relation.Page

	// matInput marks inputs the adaptive plan materializes: their pages
	// buffer without firing anything until the input completes.
	matInput [2]bool

	boundPred pred.Bound
	boundJoin *pred.BoundJoin
	projector *relalg.Projector

	dedup       *relalg.Dedup // serial-IC project
	icPaginator *relation.Paginator
	parts       []dedupPart // partitioned project

	outTupleLen int
	outPageSize int
	pending     *relation.Page // output compressor
}

// inlet returns the outlet a child (or scan feeder) uses to deliver
// input i.
func (n *nodeExec) inlet(i int) outlet {
	return outlet{
		send: func(pg *relation.Page) {
			n.events.Send(event{kind: evPage, input: i, page: pg})
		},
		done: func() {
			n.events.Send(event{kind: evInputDone, input: i})
		},
	}
}

// runIC is the instruction controller loop: apply the firing rule,
// dispatch instruction packets, forward results, detect completion.
func (n *nodeExec) runIC() {
	defer n.run.wg.Done()
	for {
		ev, ok := n.events.Recv()
		if !ok {
			return
		}
		switch ev.kind {
		case evPage:
			n.onPage(ev.input, ev.page)
		case evInputDone:
			if !n.inputsDone[ev.input] {
				n.inputsDone[ev.input] = true
				n.doneCount++
				n.onInputDone(ev.input)
			}
		case evResult:
			n.onResult(ev.page)
		case evTaskDone:
			n.completed++
			if ev.page != nil {
				n.onResult(ev.page)
			}
		}
		if n.allInputsDone() && n.completed == n.dispatched {
			n.finish()
			return
		}
	}
}

func (n *nodeExec) allInputsDone() bool { return n.doneCount == n.numInputs }

func (n *nodeExec) onPage(input int, pg *relation.Page) {
	if pg.Empty() {
		return
	}
	if n.run.eng.opts.Granularity == RelationLevel {
		// Relation-level firing: buffer until the operands are complete.
		n.buf[input] = append(n.buf[input], pg)
		return
	}
	switch n.node.Kind {
	case query.OpRestrict, query.OpProject:
		if n.matInput[input] {
			// Materialized edge: hold until the producer completes.
			n.buf[input] = append(n.buf[input], pg)
			return
		}
		n.dispatch(pg, nil)
	case query.OpJoin:
		n.buf[input] = append(n.buf[input], pg)
		if n.matInput[input] {
			// This side is invisible to the firing rule until complete;
			// flushMaterialized pairs the backlog then.
			return
		}
		// Pair the newcomer with every page already buffered on the
		// other side; pages arriving later on the other side will pair
		// with it then, so each (outer, inner) pair is dispatched
		// exactly once.
		other := 1 - input
		if n.matInput[other] && !n.inputsDone[other] {
			// The other side is still accumulating: it pairs the
			// newcomer when it completes.
			return
		}
		for _, q := range n.buf[other] {
			if input == 0 {
				n.dispatch(pg, q)
			} else {
				n.dispatch(q, pg)
			}
		}
	}
}

// flushMaterialized fires the work a materialized input held back, now
// that the input is complete. Joins pair the whole buffered side against
// everything buffered opposite (later arrivals opposite pair against it
// through onPage), so each (outer, inner) pair still dispatches exactly
// once; unary operators just drain the backlog.
func (n *nodeExec) flushMaterialized(input int) {
	switch n.node.Kind {
	case query.OpJoin:
		other := 1 - input
		if n.matInput[other] && !n.inputsDone[other] {
			// Both edges materialized and the other is still streaming:
			// its completion dispatches the full cross product.
			return
		}
		for _, p := range n.buf[input] {
			for _, q := range n.buf[other] {
				if input == 0 {
					n.dispatch(p, q)
				} else {
					n.dispatch(q, p)
				}
			}
		}
	default:
		for _, pg := range n.buf[input] {
			n.dispatch(pg, nil)
		}
		n.buf[input] = nil
	}
}

func (n *nodeExec) onInputDone(input int) {
	if n.run.eng.opts.Granularity != RelationLevel {
		if n.matInput[input] {
			n.flushMaterialized(input)
		}
		return
	}
	if !n.allInputsDone() {
		return
	}
	// Relation-level firing: the instruction is now enabled; dispatch
	// all of its work at once.
	switch n.node.Kind {
	case query.OpRestrict, query.OpProject:
		for _, pg := range n.buf[0] {
			n.dispatch(pg, nil)
		}
		n.buf[0] = nil
	case query.OpJoin:
		// The pairs share these pages: they stay buffered, as at page
		// level, until finish hands them back.
		for _, o := range n.buf[0] {
			for _, i := range n.buf[1] {
				n.dispatch(o, i)
			}
		}
	}
}

// dispatch sends one instruction packet into the arbitration network,
// metering it as Section 3.3 does: operand payload plus per-packet
// overhead. inner is nil for the unary operators.
func (n *nodeExec) dispatch(outer, inner *relation.Page) {
	n.dispatched++
	payload := outer.TupleCount() * outer.TupleLen()
	if inner != nil {
		payload += inner.TupleCount() * inner.TupleLen()
	}
	atomic.AddInt64(&n.run.stInstr, 1)
	atomic.AddInt64(&n.run.stOperand, int64(payload))
	wire := payload + n.run.eng.opts.PacketOverhead
	atomic.AddInt64(&n.run.stArb, int64(wire))
	n.run.observe("core.arbitration_bytes", float64(wire))
	if n.run.tracing() {
		n.run.event(obs.EvInstr, fmt.Sprintf("node%d", n.id), n.id, wire,
			"node%d: dispatch %s packet (%d operand bytes)", n.id, n.node.Kind, payload)
	}
	if s := n.span; s != nil {
		s.Firings.Add(1)
		s.Bytes.Add(int64(wire))
	}
	select {
	case n.run.arb <- task{node: n, outer: outer, inner: inner}:
	case <-n.run.stopped:
	}
}

// onResult forwards one output page of a task toward the consumer.
func (n *nodeExec) onResult(pg *relation.Page) {
	if n.dedup == nil {
		n.forward(pg)
		return
	}
	// Serial-IC duplicate elimination: every projected tuple funnels
	// through this controller.
	cnt := pg.TupleCount()
	for i := 0; i < cnt; i++ {
		raw := pg.RawTuple(i)
		if !n.dedup.Add(raw) {
			continue
		}
		full, err := n.icPaginator.Add(raw)
		if err != nil {
			n.run.fail(err)
			return
		}
		if full != nil {
			n.send(full)
		}
	}
	// The page's tuples now live in the dedup set / paginator; the page
	// itself is dead.
	n.run.recycle(pg)
}

// forward routes an owned output page through the compressor: partial
// pages are merged into full pages before travelling up the tree, as
// the paper's ICs compress arriving pages.
func (n *nodeExec) forward(pg *relation.Page) {
	if pg.Empty() {
		return
	}
	if n.run.eng.opts.Granularity == TupleLevel || pg.Full() {
		n.send(pg)
		return
	}
	if n.pending == nil {
		n.pending = pg
		return
	}
	if _, err := n.pending.FillFrom(pg); err != nil {
		n.run.fail(err)
		return
	}
	if n.pending.Full() {
		n.send(n.pending)
		n.pending = nil
		if !pg.Empty() {
			n.pending = pg
			return
		}
	}
	if pg.Empty() {
		// Fully drained into the compressor: the source page is dead.
		n.run.recycle(pg)
	}
}

func (n *nodeExec) send(pg *relation.Page) {
	atomic.AddInt64(&n.run.stPages, 1)
	n.out.send(pg)
}

// finish flushes buffered output and signals completion downstream.
func (n *nodeExec) finish() {
	if n.icPaginator != nil {
		if last := n.icPaginator.Flush(); last != nil {
			n.forward(last)
		}
	}
	if n.pending != nil && !n.pending.Empty() {
		n.send(n.pending)
		n.pending = nil
	}
	// A join's operand pages stayed buffered for pairings still to come.
	// Every packet has now completed and this node's kernel states — the
	// only caches keyed by these pages — are never consulted again, so
	// the pages the engine owns go back (Put ignores a scan's).
	for i := range n.buf {
		for _, pg := range n.buf[i] {
			n.run.recycle(pg)
		}
		n.buf[i] = nil
	}
	if n.run.tracing() {
		n.run.event(obs.EvInstrDone, fmt.Sprintf("node%d", n.id), n.id, 0,
			"node%d: %s complete (%d packets dispatched)", n.id, n.node.Kind, n.dispatched)
	}
	if s := n.span; s != nil {
		n.run.obs.Spans().End(s, n.run.now())
	}
	n.out.done()
}
