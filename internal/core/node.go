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

// event is one message delivered to an instruction controller. It is
// three words — kind and input share one — because every controller's
// operand ring holds its whole backlog of them.
type event struct {
	kind  evKind
	input int32          // evPage, evInputDone
	page  *relation.Page // evPage, evResult; evTaskDone's last page or nil
	run   *pageRun       // evPage: a run of pages in place of page
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

// task is one physical instruction packet: a node plus a run of operand
// pages sent to a processor, each page of the run one of the paper's
// (logical) instruction packets. For the unary operators pages are the
// operands. For a join they are each paired with the page with, which
// arrived on the given input: pages is then a view of the other side's
// buffer, which only ever grows. run, when set, is the buffer behind
// pages, for the worker to give back. A task travels by value: a packet
// costs no allocation.
type task struct {
	node  *nodeExec
	pages []*relation.Page
	with  *relation.Page
	input int
	run   *pageRun
}

// outlet is where a producer delivers its output stream: either a
// consumer node's input, or the engine's result sink. sendRun hands
// over a whole run buffer, and the ownership of it.
type outlet interface {
	send(pg *relation.Page)
	sendRun(run *pageRun)
	done()
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

	stInstr, stOperand, stArb int64
	stDispatches              int64
	stResPkts, stResBytes     int64
	stPages                   int64

	// kstats aggregates join-kernel counters across this run's workers;
	// pool0 is the page free list's counters at run start, so the
	// snapshot reports per-run deltas.
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
		pool0:   relation.PageStats(),
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
	ps := relation.PageStats()
	return Stats{
		InstructionPackets: atomic.LoadInt64(&r.stInstr),
		Dispatches:         atomic.LoadInt64(&r.stDispatches),
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
	ne.events.runs = &r.eng.runs
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
		if r.eng.opts.Granularity != TupleLevel {
			ne.packs = new([2]relation.Paginator)
			for i := range ne.packs {
				// Used only for pages smaller than the engine's, which
				// fit a tuple in less: the geometry is then valid.
				ne.packs[i].Reset(r.eng.opts.PageSize, n.Inputs[i].Schema().TupleLen())
			}
		}

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
			pg, err := relation.NewPaginator(ne.outPageSize, ne.outTupleLen)
			if err != nil {
				return err
			}
			ne.icPaginator = pg
		}

	default:
		return fmt.Errorf("core: %s nodes cannot appear inside a stream subtree", n.Kind)
	}

	for i, in := range n.Inputs {
		if err := r.build(in, inlet{ne.events, int32(i)}); err != nil {
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
	// Packets no worker took still hold their run buffers.
	for len(r.arb) > 0 {
		r.eng.runs.put((<-r.arb).run)
	}
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

// feedScan streams the pages of a source relation to the consumer, one
// pageRun per run of rel.EachRun, which decides the run lengths. At tuple
// granularity each page is split into single-tuple tokens, which leave in
// runs of up to relation.MaxRun and at the end of each page run.
func (r *engineRun) feedScan(rel *relation.Relation, out outlet) {
	tupleLevel := r.eng.opts.Granularity == TupleLevel
	errStopped := fmt.Errorf("core: run stopped")
	run := r.eng.runs.get()
	send := func() {
		atomic.AddInt64(&r.stPages, int64(run.n))
		out.sendRun(run)
		run = r.eng.runs.get()
	}
	err := rel.EachRun(func(pages []*relation.Page) error {
		select {
		case <-r.stopped:
			return errStopped
		default:
		}
		if !tupleLevel {
			run.n = copy(run.pages[:], pages)
			send()
			return nil
		}
		for _, pg := range pages {
			for i, n := 0, pg.TupleCount(); i < n; i++ {
				one, err := relation.Get(relation.PageHeaderLen+pg.TupleLen(), pg.TupleLen())
				if err == nil {
					err = one.AppendRaw(pg.RawTuple(i))
				}
				if err != nil {
					return err
				}
				if run.add(one); run.full() {
					send()
				}
			}
			pg.Release() // copied out: a stored relation's page goes back here
		}
		if run.n > 0 {
			send()
		}
		return nil
	})
	r.eng.runs.put(run)
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
	dispatched int // physical packets sent; completed counts their ends
	completed  int
	fired      int // logical instruction packets

	// buf holds operand pages: at page/tuple level only until they have
	// been paired (joins keep everything, as nested loops requires); at
	// relation level everything until the inputs complete. packs are a
	// join's open operand pages, one per input (pack); nil at tuple level
	// and for the unary operators.
	buf   [2][]*relation.Page
	packs *[2]relation.Paginator

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

// inlet is the outlet a child (or scan feeder) uses to deliver one
// input of a node.
type inlet struct {
	events *infChan
	input  int32
}

func (in inlet) send(pg *relation.Page) {
	in.events.Send(event{kind: evPage, input: in.input, page: pg})
}

func (in inlet) sendRun(run *pageRun) {
	in.events.Send(event{kind: evPage, input: in.input, run: run})
}

func (in inlet) done() {
	in.events.Send(event{kind: evInputDone, input: in.input})
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
			run := ev.run
			if run == nil {
				// A page from an operator edge: it becomes a run with
				// whatever pages of its input are already queued behind it.
				run = n.run.eng.runs.get()
				run.add(ev.page)
				n.events.More(ev.input, run)
			}
			n.onRun(int(ev.input), run)
		case evInputDone:
			if !n.inputsDone[ev.input] {
				n.inputsDone[ev.input] = true
				n.doneCount++
				n.onInputDone(int(ev.input))
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

// onRun applies the firing rule to a run of pages that arrived on one
// input. It owns run: a unary operator firing at once sends the buffer
// on as the packet's operands; every other case copies the pages into
// buf and gives the buffer back.
func (n *nodeExec) onRun(input int, run *pageRun) {
	run.dropEmpty()
	join := n.node.Kind == query.OpJoin
	// Relation-level firing buffers until the operands are complete; a
	// join buffers everything.
	held := n.run.eng.opts.Granularity == RelationLevel
	if !join && !held && run.n > 0 {
		n.dispatch(task{node: n, pages: run.slice(), run: run})
		return
	}
	first := len(n.buf[input])
	if n.packs != nil {
		n.pack(input, run.slice())
	} else {
		n.buf[input] = append(n.buf[input], run.slice()...)
	}
	n.run.eng.runs.put(run)
	if !join || held {
		return // onInputDone fires the backlog
	}
	// Pair each newcomer with every page already buffered on the other
	// side; pages arriving later on the other side will pair with it
	// then, so each (outer, inner) pair is dispatched exactly once.
	other := 1 - input
	for _, pg := range n.buf[input][first:] {
		n.fire(n.buf[other], pg, input)
	}
}

// pack is the join's operand compressor, the paper's IC compression
// applied to its buffer: the tuples of a page smaller than the engine's
// are copied into the input's open engine-size page, the originals are
// released at once — a stored scan's buffer-pool pages among them — and
// the open page joins the buffer when it fills, or partly filled when
// the input ends. A page of the engine's size joins the buffer untouched.
// pages is the run's own slice, which pack reuses.
func (n *nodeExec) pack(input int, pages []*relation.Page) {
	size := n.run.eng.opts.PageSize
	pk := &n.packs[input]
	small := pages[:0]
	for _, pg := range pages {
		if pg.PageSize() >= size {
			n.buf[input] = append(n.buf[input], pg)
			continue
		}
		pk.Write(pg.Data(), func(full *relation.Page) {
			n.buf[input] = append(n.buf[input], full)
		})
		small = append(small, pg)
	}
	relation.ReleaseAll(small)
}

// fire dispatches pages at most relation.MaxRun to a packet: the operands
// of a unary operator or, for a join, the pages to pair with the page with,
// which arrived on input. For a join pages is a view of the opposite
// buffer: appends never write below its length, and finish clears the
// buffer only after every packet has completed.
func (n *nodeExec) fire(pages []*relation.Page, with *relation.Page, input int) {
	for len(pages) > 0 {
		k := min(len(pages), relation.MaxRun)
		n.dispatch(task{node: n, pages: pages[:k], with: with, input: input})
		pages = pages[k:]
	}
}

// onInputDone buffers a join input's last, partly filled packed page,
// pairing it at once at page level. Then comes relation-level firing:
// once every operand is complete the instruction is enabled and
// dispatches all of its work at once. A join pairs every outer page with
// the whole inner side, and the pages stay buffered until finish; a
// unary operator drains its backlog.
func (n *nodeExec) onInputDone(input int) {
	relationLevel := n.run.eng.opts.Granularity == RelationLevel
	if n.packs != nil {
		if last := n.packs[input].Flush(); last != nil {
			n.buf[input] = append(n.buf[input], last)
			if !relationLevel {
				n.fire(n.buf[1-input], last, input)
			}
		}
	}
	if !relationLevel || !n.allInputsDone() {
		return
	}
	if n.node.Kind != query.OpJoin {
		n.fire(n.buf[0], nil, 0)
		n.buf[0] = nil
		return
	}
	for _, pg := range n.buf[0] {
		n.fire(n.buf[1], pg, 0)
	}
}

// dispatch sends one physical packet into the arbitration network and
// meters it as Section 3.3 does, logical packet by logical packet: each
// operand page of a unary run, each pair of a join run, is one
// instruction packet of operand payload plus per-packet overhead.
func (n *nodeExec) dispatch(t task) {
	n.dispatched++
	fixed := 0
	if t.with != nil {
		fixed = t.with.TupleCount() * t.with.TupleLen()
	}
	overhead := n.run.eng.opts.PacketOverhead
	operand := 0
	for _, pg := range t.pages {
		payload := fixed + pg.TupleCount()*pg.TupleLen()
		operand += payload
		if n.run.tracing() {
			n.run.event(obs.EvInstr, fmt.Sprintf("node%d", n.id), n.id, payload+overhead,
				"node%d: dispatch %s packet (%d operand bytes)", n.id, n.node.Kind, payload)
		}
	}
	k := len(t.pages)
	n.fired += k
	wire := operand + k*overhead
	atomic.AddInt64(&n.run.stDispatches, 1)
	atomic.AddInt64(&n.run.stInstr, int64(k))
	atomic.AddInt64(&n.run.stOperand, int64(operand))
	atomic.AddInt64(&n.run.stArb, int64(wire))
	n.run.observe("core.arbitration_bytes", float64(wire))
	if s := n.span; s != nil {
		s.Firings.Add(int64(k))
		s.Bytes.Add(int64(wire))
	}
	select {
	case n.run.arb <- t:
	case <-n.run.stopped:
		n.run.eng.runs.put(t.run)
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
	pg.Release()
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
		pg.Release()
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
	// their references go back, a scan's with the engine's own.
	for i := range n.buf {
		relation.ReleaseAll(n.buf[i])
		n.buf[i] = nil
	}
	if n.run.tracing() {
		n.run.event(obs.EvInstrDone, fmt.Sprintf("node%d", n.id), n.id, 0,
			"node%d: %s complete (%d packets dispatched)", n.id, n.node.Kind, n.fired)
	}
	if s := n.span; s != nil {
		n.run.obs.Spans().End(s, n.run.now())
	}
	n.out.done()
}
