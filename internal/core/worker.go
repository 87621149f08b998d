package core

import (
	"fmt"
	"sync/atomic"

	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// worker is one instruction processor: it pulls instruction packets off
// the arbitration network, applies the operation to the operand pages,
// paginates the result tuples, and sends the result pages back to the
// controlling node.
func (r *engineRun) worker() {
	defer r.wg.Done()
	w := newWorkerState(r)
	for {
		select {
		case t := <-r.arb:
			w.exec(t)
		case <-r.stopped:
			return
		}
	}
}

// workerState is what one worker keeps between instruction packets, so
// that a packet buys nothing: the reusable kernel state, one entry per
// node — cached inner-page hash tables, batch-compiled restrict
// predicates with their selection-bitmap scratch, project gather
// buffers — and the output side, one paginator and two tuple sinks
// built once and re-aimed at each packet's node. Kernel states hold
// mutable scratch, so all of it is per-worker, never shared between
// goroutines. The worker is itself the relalg.Out the restrict and join
// kernels write into: their result tuples land in the paginator's page.
type workerState struct {
	run       *engineRun
	joins     map[*nodeExec]*relalg.JoinState
	restricts map[*nodeExec]*relalg.RestrictState
	projects  map[*nodeExec]*relalg.ProjectState

	// The packet in hand: its node, the paginator filling its current
	// output page, and the meters of the pages already sent.
	node     *nodeExec
	pgtor    relation.Paginator
	pages    int
	tuples   int64
	resBytes int

	emit     relalg.EmitFunc // paginate one projected tuple
	emitPart relalg.EmitFunc // partitioned project: dedup, then emit
}

func newWorkerState(r *engineRun) *workerState {
	w := &workerState{
		run:       r,
		joins:     make(map[*nodeExec]*relalg.JoinState),
		restricts: make(map[*nodeExec]*relalg.RestrictState),
		projects:  make(map[*nodeExec]*relalg.ProjectState),
	}
	w.emit = func(raw []byte) error {
		full, err := w.pgtor.Add(raw)
		w.sendFull(full)
		return err
	}
	// Partitioned duplicate elimination: byte-equal projections always
	// hash to the same partition, so partition-local dedup is globally
	// exact and workers never contend on a single set.
	w.emitPart = func(raw []byte) error {
		parts := w.node.parts
		part := &parts[relalg.HashPartition(raw, len(parts))]
		part.mu.Lock()
		fresh := part.d.Add(raw)
		part.mu.Unlock()
		if !fresh {
			return nil
		}
		return w.emit(raw)
	}
	return w
}

// Write copies whole tuples into the worker's output pages.
func (w *workerState) Write(tuples []byte) error {
	w.pgtor.Write(tuples, w.sendFull)
	return nil
}

// Room is the free space of the worker's current output page.
func (w *workerState) Room() []byte { return w.pgtor.Room() }

// Commit adds the tuples a kernel wrote into Room to the output page.
func (w *workerState) Commit(n int) error {
	w.sendFull(w.pgtor.Commit(n))
	return nil
}

// sendFull sends a page the paginator filled, if any: it leaves at once,
// and the packet's last page rides on its completion event.
func (w *workerState) sendFull(full *relation.Page) {
	if full != nil {
		w.meter(full)
		w.node.events.Send(event{kind: evResult, page: full})
	}
}

// meter charges one result page to the distribution network.
func (w *workerState) meter(pg *relation.Page) {
	wire := pg.TupleCount()*pg.TupleLen() + w.run.eng.opts.PacketOverhead
	atomic.AddInt64(&w.run.stResPkts, 1)
	atomic.AddInt64(&w.run.stResBytes, int64(wire))
	w.pages++
	w.tuples += int64(pg.TupleCount())
	w.resBytes += wire
}

// exec executes one physical packet: the whole run under one paginator,
// so its result pages leave full, and one completion for all of it.
func (w *workerState) exec(t task) {
	r, n := w.run, t.node
	start := r.now()
	w.node, w.pages, w.tuples, w.resBytes = n, 0, 0, 0
	w.pgtor.Reset(n.outPageSize, n.outTupleLen)

	err := w.apply(t)
	r.eng.runs.put(t.run) // t.pages keeps its length, not its pages
	if err != nil {
		r.fail(err)
		return
	}
	last := w.pgtor.Flush()
	if last != nil {
		w.meter(last)
	}

	end := r.now()
	if o := r.obs; o.MetricsOn() {
		// Both meters close at end, under one registry lock.
		busy := float64((end - start).Microseconds())
		if w.resBytes > 0 {
			o.Registry().AddPair(end, "core.result_bytes", float64(w.resBytes), "core.worker_busy_us", busy)
		} else {
			o.Registry().Add("core.worker_busy_us", end, busy)
		}
	}
	if r.spansOn() {
		r.obs.Spans().Record(obs.SpanExec, n.span, start, end, "worker", "exec", r.qid, n.id, -1)
		if s := n.span; s != nil {
			operands := len(t.pages)
			if t.with != nil {
				operands *= 2 // each logical packet carried a pair
			}
			s.PagesIn.Add(int64(operands))
			s.PagesOut.Add(int64(w.pages))
			s.TuplesOut.Add(w.tuples)
		}
	}
	if r.tracing() {
		r.event(obs.EvResult, fmt.Sprintf("node%d", n.id), n.id, w.resBytes,
			"node%d: task complete (%d result pages)", n.id, w.pages)
	}
	n.events.Send(event{kind: evTaskDone, page: last})
}

// apply runs the node's kernel over every logical packet of t. A unary
// operand run is dead once the kernel has read it and goes back whole,
// one ReleaseAll, whether or not the kernel failed; join operands stay
// buffered in the controller for future pairings and go back when it
// finishes.
func (w *workerState) apply(t task) error {
	r, n := w.run, t.node
	switch n.node.Kind {
	case query.OpRestrict:
		rs := w.restricts[n]
		if rs == nil {
			rs = relalg.NewRestrictState(n.boundPred)
			w.restricts[n] = rs
		}
		defer relation.ReleaseAll(t.pages)
		for _, pg := range t.pages {
			if _, err := rs.RestrictInto(pg, w); err != nil {
				return err
			}
		}

	case query.OpJoin:
		st := w.joins[n]
		if st == nil {
			st = relalg.NewJoinState(n.boundJoin, &r.kstats)
			w.joins[n] = st
		}
		for _, pg := range t.pages {
			outer, inner := t.with, pg
			if t.input == 1 {
				outer, inner = pg, t.with
			}
			if _, err := st.JoinInto(outer, inner, w); err != nil {
				return err
			}
		}

	case query.OpProject:
		sink := w.emit
		if n.parts != nil {
			sink = w.emitPart
		}
		ps := w.projects[n]
		if ps == nil {
			ps = relalg.NewProjectState(n.projector)
			w.projects[n] = ps
		}
		defer relation.ReleaseAll(t.pages)
		for _, pg := range t.pages {
			if _, err := ps.ProjectPage(pg, nil, sink); err != nil {
				return err
			}
		}

	default:
		return fmt.Errorf("core: worker received %s task", n.node.Kind)
	}
	return nil
}
