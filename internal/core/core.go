// Package core implements the paper's primary contribution as a working
// concurrent query engine: data-flow execution of relational-algebra
// query trees, with the operand granularity — relation, page, or tuple —
// selectable per run.
//
// The mapping from the paper's machine to Go is direct. Every non-leaf
// query-tree node gets an instruction controller goroutine (the paper's
// IC) that applies the firing rule of the granularity in force and emits
// instruction packets; a bounded channel is the arbitration network, its
// capacity the number of memory cells; a pool of worker goroutines is
// the instruction-processor (IP) pool; result pages stream back through
// per-node event queues (the distribution network) and are compressed
// into full pages before travelling up the tree, exactly as the paper's
// ICs compress arriving partial pages.
//
// What crosses a goroutine boundary is a run of pages, not a page: a
// scan feeder hands over 1, 2, 4 … 32 pages at a time, a controller
// takes the pages already queued behind the one it received, and one
// physical packet carries a run of the paper's instruction packets to a
// processor. The accounting stays the paper's — one logical packet per
// operand page or page pair — and Stats.Dispatches counts the hand-offs.
//
// The engine computes real answers and meters the traffic that the
// paper's Section 3.3 analyzes: bytes and packets through the
// arbitration and distribution networks at each granularity.
package core

import (
	"context"
	"fmt"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
)

// Granularity selects the scheduling unit of data-flow execution — the
// subject of the paper's Section 3.
type Granularity uint8

// The three operand granularities.
const (
	// RelationLevel enables an instruction only when every source
	// operand has been completely computed.
	RelationLevel Granularity = iota + 1
	// PageLevel enables an instruction as soon as one page of each
	// source operand exists; pages of intermediate relations are
	// pipelined up the tree. The paper's recommended design point.
	PageLevel
	// TupleLevel enables an instruction as soon as one tuple of each
	// source operand exists. Every token carries a single tuple.
	TupleLevel
)

// String returns the granularity name.
func (g Granularity) String() string {
	switch g {
	case RelationLevel:
		return "relation"
	case PageLevel:
		return "page"
	case TupleLevel:
		return "tuple"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}

// ProjectStrategy selects how the project operator eliminates
// duplicates.
type ProjectStrategy uint8

const (
	// ProjectSerialIC deduplicates at the instruction controller: every
	// projected tuple funnels through one goroutine. This is the state
	// of the art the paper laments in Section 5 ("we have not yet
	// developed an algorithm for which a high degree of parallelism can
	// be maintained").
	ProjectSerialIC ProjectStrategy = iota
	// ProjectPartitioned hash-partitions projected tuples across
	// independent duplicate-elimination sets so workers deduplicate in
	// parallel with no shared bottleneck — the resolution of the
	// paper's open problem.
	ProjectPartitioned
)

// String returns the strategy name.
func (p ProjectStrategy) String() string {
	if p == ProjectPartitioned {
		return "partitioned"
	}
	return "serial-ic"
}

// DefaultPageSize is the engine's intermediate and result page size
// unless Options.PageSize sets one: the Section 3.3 trade-off measured
// through the server (EXPERIMENTS.md, "Section 3.3 on the service
// path"). Every page pays fixed costs at every hop — controller event,
// compressor, frame encode, socket write, client decode — and a few
// workers on a few cores never run short of tasks, so the minimum lies
// above the paper's 16 KB DIRECT operand (relation.DefaultPageSize),
// which the simulators keep.
const DefaultPageSize = 64 << 10

// Options configures an Engine.
type Options struct {
	// Granularity is the scheduling unit. Default PageLevel.
	Granularity Granularity
	// Workers is the number of instruction processors. Default 4.
	Workers int
	// CellsPerWorker sizes the arbitration network: the number of
	// memory cells per processor. The paper's simulation used two
	// memory cells for each processor. Default 2.
	CellsPerWorker int
	// PageSize is the page size of intermediate and result pages.
	// Default DefaultPageSize (64 KiB).
	PageSize int
	// PacketOverhead is c, the control bytes accompanying every packet
	// through the arbitration or distribution network — the overhead
	// term of the Section 3.3 analysis. Default 32.
	PacketOverhead int
	// Project selects the duplicate-elimination strategy. Default
	// ProjectSerialIC (the paper's baseline).
	Project ProjectStrategy
	// Obs, when non-nil, receives one structured obs.Event per
	// dispatched instruction packet, task completion, and node
	// completion — stamped with real time since the execution started —
	// and, when it carries a registry, the core.* bandwidth timelines
	// plus each run's Stats re-expressed as counters (counters
	// accumulate across executions of the same engine).
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.Granularity == 0 {
		o.Granularity = PageLevel
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CellsPerWorker <= 0 {
		o.CellsPerWorker = 2
	}
	if o.PageSize <= 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PacketOverhead <= 0 {
		o.PacketOverhead = 32
	}
	return o
}

// Stats meters one execution. Byte counts follow the accounting of the
// paper's Section 3.3: a packet's operand bytes are the tuple payload it
// carries, plus PacketOverhead control bytes per packet.
type Stats struct {
	// InstructionPackets is the number of instruction packets sent
	// through the arbitration network to processors: the paper's, one
	// per operand page of a unary operator and one per (outer, inner)
	// page pair of a join.
	InstructionPackets int64
	// Dispatches is the number of physical hand-offs that carried them:
	// a controller sends a run of instruction packets as one.
	Dispatches int64
	// OperandBytes is the tuple payload carried by those packets.
	OperandBytes int64
	// ArbitrationBytes = OperandBytes + overhead·InstructionPackets:
	// the total arbitration-network load.
	ArbitrationBytes int64
	// ResultPackets and ResultBytes meter the distribution network
	// (worker results travelling back to controllers).
	ResultPackets int64
	ResultBytes   int64
	// PagesMoved counts page tokens forwarded between tree nodes.
	PagesMoved int64
	// TuplesOut is the cardinality of the query result.
	TuplesOut int64
	// PoolHits, PoolMisses, and PagesRecycled are the run's deltas of
	// the process's page free list (relation.PageStats): pages served
	// from the list, pages freshly allocated, and dead pages handed back
	// for reuse. Every run and buffer pool in the process shares the
	// list, so they are a query's own only when it runs alone: the
	// queries an engine runs at once, as the server's one engine does,
	// count each other's pages.
	PoolHits      int64
	PoolMisses    int64
	PagesRecycled int64
	// HashProbes, HashBuilds, and HashTableHits meter the hash join
	// kernel (outer tuples probed, inner-page tables built, page pairs
	// served by a cached table); NestedPairs counts tuple pairs compared
	// by the nested-loops kernel.
	HashProbes    int64
	HashBuilds    int64
	HashTableHits int64
	NestedPairs   int64
	// Elapsed is wall-clock execution time.
	Elapsed time.Duration
}

// Result is the outcome of executing one query.
type Result struct {
	// Relation holds the answer.
	Relation *relation.Relation
	// Stats meters the run.
	Stats Stats
}

// Engine executes bound query trees against a catalog.
type Engine struct {
	cat  *catalog.Catalog
	opts Options
	// runs is the free list of the run buffers pages cross goroutine
	// boundaries in.
	runs runList
}

// New returns an engine over the catalog.
func New(cat *catalog.Catalog, opts Options) *Engine {
	return &Engine{cat: cat, opts: opts.withDefaults()}
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Execute runs a bound read tree and returns its result. Executions
// are independent; an engine may execute several queries concurrently
// as long as their footprints do not conflict (see query.Footprint).
// The engine runs read trees only: a write root (append, delete) is
// refused, for wal.Write applies writes — an append's source computed
// here through ExecuteScratch.
func (e *Engine) Execute(t *query.Tree) (*Result, error) {
	return e.ExecuteContext(context.Background(), t)
}

// ExecuteContext is Execute under a context: when ctx is cancelled or
// times out, the run's workers and controllers are stopped, blocked
// channel operations unwind, and the context's error is returned. It
// is ExecuteStream with a collector for emit: the result relation
// retains the pages the root produced, and holds their references.
func (e *Engine) ExecuteContext(ctx context.Context, t *query.Tree) (*Result, error) {
	root := t.Root()
	collected, err := relation.New(root.Label(), root.Schema(), e.ResultPageSize(root))
	if err != nil {
		return nil, err
	}
	res, err := e.ExecuteStream(ctx, t, func(pg *relation.Page) error {
		err := collected.AppendPage(pg)
		pg.Release() // the emitted reference: the relation took its own
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Relation = collected
	return res, nil
}

// ExecuteStream runs a bound query tree and hands every page of its
// result to emit while the query is still executing: the root operator
// emits each page as it leaves the root's compressor, so at page
// granularity every page but the last is full. emit is called by one
// goroutine at a time and never after ExecuteStream returns; an error
// from it fails the run. Result.Relation is nil — the pages went to
// emit.
//
// An emitted page comes with a reference that belongs to the consumer: it
// may keep the page, or let go of the reference (Page.Release) once it has
// no further use for its bytes. A bare-scan root emits the stored
// relation's own pages: those are shared with every other reader, so the
// consumer must not write to them, and they are stable only while the
// caller excludes writers of that relation.
func (e *Engine) ExecuteStream(ctx context.Context, t *query.Tree, emit func(*relation.Page) error) (*Result, error) {
	res, err := e.execute(ctx, t, emit)
	if err != nil {
		return nil, err
	}
	e.exportMetrics(res)
	if serr := e.opts.Obs.Err(); serr != nil {
		return nil, fmt.Errorf("core: trace sink: %w", serr)
	}
	return res, nil
}

// ExecuteScratch runs a pure query and collects its result into a
// scratch relation made of pages the engine still owns. The caller reads
// the relation — under whatever exclusion guards its catalog, since a
// bare scan's pages are the stored relation's own — and then calls
// release, after which it must not touch the relation again; a caller
// that fails before that just leaves the pages to the collector.
func (e *Engine) ExecuteScratch(ctx context.Context, t *query.Tree) (rel *relation.Relation, release func(), err error) {
	root := t.Root()
	if rel, err = relation.New(root.Label(), root.Schema(), e.ResultPageSize(root)); err != nil {
		return nil, nil, err
	}
	var pages []*relation.Page // the relation only borrows them
	if _, err := e.ExecuteStream(ctx, t, func(pg *relation.Page) error {
		pages = append(pages, pg)
		return rel.LendPage(pg)
	}); err != nil {
		return nil, nil, err
	}
	return rel, func() { relation.ReleaseAll(pages) }, nil
}

// ResultPageSize is the page size of the result relation a subtree
// rooted at top produces: the engine's, raised to fit one tuple. A
// streaming consumer needs it to describe the result before the first
// page exists.
func (e *Engine) ResultPageSize(top *query.Node) int {
	size := e.opts.PageSize
	if min := relation.PageHeaderLen + top.Schema().TupleLen(); size < min {
		size = min
	}
	return size
}

// exportMetrics re-expresses one execution's Stats through the metrics
// registry. Counters accumulate across executions of the same engine.
func (e *Engine) exportMetrics(res *Result) {
	o := e.opts.Obs
	if !o.MetricsOn() {
		return
	}
	r := o.Registry()
	s := res.Stats
	r.Inc("core.instruction_packets", s.InstructionPackets)
	r.Inc("core.dispatches", s.Dispatches)
	r.Inc("core.operand_bytes", s.OperandBytes)
	r.Inc("core.arbitration_bytes_total", s.ArbitrationBytes)
	r.Inc("core.result_packets", s.ResultPackets)
	r.Inc("core.result_bytes_total", s.ResultBytes)
	r.Inc("core.pages_moved", s.PagesMoved)
	r.Inc("core.tuples_out", s.TuplesOut)
	r.Inc("core.pool_hits", s.PoolHits)
	r.Inc("core.pool_misses", s.PoolMisses)
	r.Inc("core.pages_recycled", s.PagesRecycled)
	r.Inc("core.join_hash_probes", s.HashProbes)
	r.Inc("core.join_hash_builds", s.HashBuilds)
	r.Inc("core.join_table_hits", s.HashTableHits)
	r.Inc("core.join_nested_pairs", s.NestedPairs)
	r.SetGauge("core.elapsed_seconds", s.Elapsed.Seconds())
}

// execute runs a read tree, handing the root's output pages to emit as
// the root produces them. Only the root's controller (or, for a bare
// scan, its feeder) calls emit, and shutdown waits for it, so calls
// never overlap or outlive the run.
func (e *Engine) execute(ctx context.Context, t *query.Tree, emit func(*relation.Page) error) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	root := t.Root()
	if root.Kind == query.OpAppend || root.Kind == query.OpDelete {
		return nil, fmt.Errorf("core: %s is a write: the engine runs read trees, and writes go through wal.Write", root.Kind)
	}
	start := time.Now()
	run := newEngineRun(ctx, e, t)
	defer run.shutdown()

	// Cancellation propagates as a run failure: closing run.stopped
	// unblocks every worker, controller, and channel send of the run.
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				run.fail(ctx.Err())
			case <-watchDone:
			case <-run.stopped:
			}
		}()
	}

	sink := &resultSink{run: run, emit: emit, finished: make(chan struct{})}
	if err := run.build(root, sink); err != nil {
		return nil, err
	}
	run.start()

	select {
	case <-sink.finished:
	case <-run.stopped:
	}
	if err := run.errValue(); err != nil {
		return nil, err
	}

	st := run.snapshotStats()
	st.TuplesOut = sink.tuples
	st.Elapsed = time.Since(start)
	return &Result{Stats: st}, nil
}

// resultSink is the outlet at the top of a run: it hands the root's
// pages to emit. Only one goroutine — the root's controller or, for a
// bare scan, its feeder — ever calls it; tuples is read once finished
// is closed.
type resultSink struct {
	run      *engineRun
	emit     func(*relation.Page) error
	tuples   int64
	finished chan struct{}
}

func (s *resultSink) send(pg *relation.Page) {
	s.tuples += int64(pg.TupleCount())
	if err := s.emit(pg); err != nil {
		s.run.fail(err)
	}
}

func (s *resultSink) sendRun(run *pageRun) {
	for _, pg := range run.slice() {
		s.send(pg)
	}
	s.run.eng.runs.put(run)
}

func (s *resultSink) done() { close(s.finished) }
