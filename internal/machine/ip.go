package machine

import (
	"fmt"
	"time"

	"dfdbm/internal/fault"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// ip is one instruction processor. It executes instruction packets from
// its controlling IC, buffers result tuples internally (flushing full
// pages as result packets, and everything on a flush-when-done packet),
// and — for joins — runs the Section 4.2 broadcast protocol with an
// inner-relation-control (IRC) vector: it joins whatever inner pages
// reach it, ignores broadcasts when its buffer is full, and requests
// the pages it missed once it learns where the inner relation ends.
type ip struct {
	m  *Machine
	id int
	// failed marks a processor removed from service (requirement 5:
	// the machine survives an arbitrary number of disabled
	// processors). Failure takes effect at allocation boundaries: a
	// failed processor is never granted again and is dropped from the
	// pool when released.
	failed bool
	// crashed marks a processor killed by the fault plan: it stops
	// executing, buffering, and sending mid-whatever-it-was-doing,
	// abandoning its IRC state and buffered pages. Nobody is told —
	// the owning IC discovers the loss through its watchdog.
	crashed bool

	ic    *ic
	instr *minstr

	// busyTotal accumulates this processor's compute time, feeding the
	// per-IP utilization gauges.
	busyTotal time.Duration

	queue []*InstructionPacket
	busy  bool

	pgtor *relation.Paginator

	// outPages accumulates the in-flight work unit's finished result
	// pages when the resilient protocol is active: they ride to the IC
	// inside one atomic completion packet instead of streaming as
	// result packets, so a loss costs the whole unit (re-dispatched)
	// and never half of it.
	outPages []*relation.Page

	// Join state. join holds the reusable kernel state — the scratch
	// buffers plus, for equi-joins, the hash tables of inner pages this
	// processor has already met (the IRC-vector residency of Section
	// 4.2: broadcast inner pages stay useful between outer pages).
	join       *relalg.JoinState
	outer      *relation.Page
	outerNo    int
	irc        map[int]bool // IRC vector: inner page index → joined
	innerTotal int          // -1 until the last-page indication arrives
	innerBuf   []innerEntry
	waitingFor int // inner index requested and awaited, or -1
	execIdx    int // inner index being joined right now, or -1
}

type innerEntry struct {
	idx  int
	page *relation.Page
	last bool
}

// bind attaches the processor to an instruction.
func (p *ip) bind(c *ic, mi *minstr) {
	if len(p.queue) > 0 {
		p.m.fail(fmt.Errorf("IP %d rebound with %d packets queued", p.id, len(p.queue)))
	}
	p.ic = c
	p.instr = mi
	p.queue = nil
	p.busy = false
	pag, err := relation.NewPaginator(mi.outPageSize, mi.outTupleLen)
	if err != nil {
		p.m.fail(err)
		return
	}
	p.pgtor = pag
	p.outPages = nil
	p.join = nil
	p.outer = nil
	p.outerNo = -1
	p.irc = nil
	p.innerTotal = -1
	p.innerBuf = nil
	p.waitingFor = -1
	p.execIdx = -1
}

// receive accepts a non-broadcast instruction packet.
func (p *ip) receive(pkt *InstructionPacket) {
	if p.crashed {
		return // dead hardware swallows the packet
	}
	p.queue = append(p.queue, pkt)
	p.pump()
}

func (p *ip) pump() {
	if p.busy || len(p.queue) == 0 {
		return
	}
	pkt := p.queue[0]
	p.queue = p.queue[1:]
	p.exec(pkt)
}

func (p *ip) exec(pkt *InstructionPacket) {
	if p.instr == nil {
		p.m.fail(fmt.Errorf("IP %d executing with no instruction", p.id))
		return
	}
	if len(pkt.Pages) == 0 && pkt.FlushWhenDone {
		// Pure flush: drain the result buffer and report done.
		p.flushResults()
		p.sendDone(flushDonePage)
		return
	}
	switch query.OpKind(pkt.Opcode) {
	case query.OpRestrict, query.OpProject:
		p.execUnary(pkt)
	case query.OpJoin:
		p.execJoinOuter(pkt)
	default:
		p.m.fail(fmt.Errorf("IP %d: unsupported opcode %d", p.id, pkt.Opcode))
	}
}

// execUnary processes one data page of a restrict or project.
func (p *ip) execUnary(pkt *InstructionPacket) {
	pg := pkt.Pages[0]
	mi := p.instr
	var compute = p.m.cfg.HW.Proc.RestrictTime(pg.TupleCount())
	if mi.node.Kind == query.OpProject {
		compute = p.m.cfg.HW.Proc.ProjectTime(pg.TupleCount())
	}
	p.busy = true
	p.m.ipBusy += compute
	p.busyTotal += compute
	p.m.observeBusy("machine.ip_busy_us", p.m.s.Now(), compute)
	if p.m.spansOn() {
		now := p.m.s.Now()
		p.m.recordSpan(obs.SpanExec, mi.span, now, now+compute,
			fmt.Sprintf("IP%d", p.id), "exec", mi.q.id, mi.id, pkt.OuterPageNo)
		mi.span.PagesIn.Add(1)
	}
	direct := pkt.ICIDSender != p.ic.id // page was routed IP→IP
	p.m.s.After(compute, func() {
		if p.crashed {
			return
		}
		var err error
		switch mi.node.Kind {
		case query.OpRestrict:
			_, err = mi.restrict.RestrictPage(pg, p.emit)
		case query.OpProject:
			// No per-processor duplicate elimination: the instruction's
			// IC deduplicates globally (the serial algorithm the paper's
			// Section 5 identifies as the open problem).
			_, err = mi.project.ProjectPage(pg, nil, p.emit)
		}
		if err != nil {
			p.m.fail(err)
			return
		}
		p.busy = false
		if p.m.guarded() {
			// Results and the done indication travel together.
			p.sendCompletion(pkt.OuterPageNo, -1)
			p.pump()
			return
		}
		// Direct-routed operands flush eagerly: the controlling IC does
		// not track this processor's buffer for them, so tuples must
		// not linger past a flush packet that may already be queued.
		if pkt.FlushWhenDone || direct {
			p.flushResults()
		}
		if direct {
			p.sendDone(directDonePage)
		} else {
			p.sendDone(pkt.OuterPageNo)
		}
		p.pump()
	})
}

// execJoinOuter installs a new outer page (the packet may carry the
// first inner page too, per the paper's first instruction packet).
func (p *ip) execJoinOuter(pkt *InstructionPacket) {
	if p.m.spansOn() && p.instr.span != nil {
		p.instr.span.PagesIn.Add(1) // the installed outer page
	}
	p.outer = pkt.Pages[0]
	p.outerNo = pkt.OuterPageNo
	p.irc = map[int]bool{}
	// A re-dispatched outer page carries the inner indices whose join
	// steps the IC already accepted; seeding the IRC vector keeps the
	// retry from re-producing their result tuples.
	for _, i := range pkt.JoinedInner {
		p.irc[i] = true
	}
	p.waitingFor = -1
	if len(pkt.Pages) > 1 {
		if pkt.LastInner {
			p.innerTotal = pkt.InnerPageNo + 1
		}
		p.execPair(pkt.InnerPageNo, pkt.Pages[1])
		return
	}
	p.step()
}

// execPair joins the current outer page with one inner page.
func (p *ip) execPair(idx int, inner *relation.Page) {
	p.busy = true
	p.execIdx = idx
	if p.join == nil {
		p.join = relalg.NewJoinState(p.instr.boundJoin, &p.m.kstats)
	}
	// The simulated cost defaults to the paper's nested-loops n·m model
	// regardless of which kernel computes the answer (the kernels emit
	// identical results); HashJoinTiming opts into the O(n+m) model,
	// charging the build only when the inner page's table is not
	// already resident on this processor.
	var compute time.Duration
	if p.m.cfg.HashJoinTiming && p.join.Kernel() == relalg.KernelHash {
		compute = p.m.cfg.HW.Proc.HashJoinTime(p.outer.TupleCount(), inner.TupleCount(), !p.join.TableCached(inner))
	} else {
		compute = p.m.cfg.HW.Proc.JoinTime(p.outer.TupleCount(), inner.TupleCount())
	}
	p.m.ipBusy += compute
	p.busyTotal += compute
	p.m.observeBusy("machine.ip_busy_us", p.m.s.Now(), compute)
	if p.m.spansOn() {
		mi := p.instr
		now := p.m.s.Now()
		p.m.recordSpan(obs.SpanExec, mi.span, now, now+compute,
			fmt.Sprintf("IP%d", p.id), "join exec", mi.q.id, mi.id, idx)
		mi.span.PagesIn.Add(1)
	}
	p.m.s.After(compute, func() {
		mi := p.instr
		if mi == nil || p.crashed {
			return
		}
		if _, err := p.join.JoinPages(p.outer, inner, p.emit); err != nil {
			p.m.fail(err)
			return
		}
		p.irc[idx] = true
		p.busy = false
		p.execIdx = -1
		if p.m.guarded() {
			p.sendCompletion(p.outerNo, idx)
		}
		p.step()
	})
}

// step decides the idle join processor's next move: drain the inner
// buffer, request the next inner page it is missing, or — when its IRC
// vector shows every inner page joined — ask for a fresh outer page.
func (p *ip) step() {
	if p.busy || p.outer == nil || p.instr == nil {
		return
	}
	for len(p.innerBuf) > 0 {
		e := p.innerBuf[0]
		p.innerBuf = p.innerBuf[1:]
		if e.last {
			p.innerTotal = e.idx + 1
		}
		if p.irc[e.idx] {
			continue // joined meanwhile via a re-broadcast
		}
		p.waitingFor = -1
		p.execPair(e.idx, e.page)
		return
	}
	missing := p.firstMissing()
	if p.innerTotal >= 0 && missing >= p.innerTotal {
		// IRC vector satisfied: the outer page has met every inner
		// page. Zero it and request more outer work.
		finished := p.outerNo
		p.outer = nil
		p.outerNo = -1
		p.irc = nil
		p.waitingFor = -1
		if p.m.guarded() {
			// The request names the finished outer page so the IC can
			// tell a fresh request from a duplicated or stale one.
			p.sendCtrl(msgNeedOuter, finished)
			p.armOuterRetry(finished, 0)
			return
		}
		p.sendCtrl(msgNeedOuter, -1)
		return
	}
	if p.waitingFor == missing {
		return // request already outstanding
	}
	p.waitingFor = missing
	p.sendCtrl(msgNeedInner, missing)
	p.armInnerRetry(missing, 0)
}

// maxRequestRetries bounds how often an IP re-issues one control
// request; past it the IP goes quiet and the IC's watchdog takes over.
const maxRequestRetries = 16

// requestRetryDelay is the IP's control-request retransmission
// interval — well inside the IC's watchdog, so a lost request or
// broadcast is retried several times before anyone is suspected.
func (p *ip) requestRetryDelay() time.Duration {
	return p.m.cfg.WatchdogTimeout / 8
}

// armInnerRetry re-issues a need-inner request whose answer never
// arrived: the Section 4.2 missed-broadcast recovery path, driven here
// by genuine packet loss rather than a full buffer.
func (p *ip) armInnerRetry(idx, tries int) {
	if !p.m.guarded() || tries >= maxRequestRetries {
		return
	}
	mi := p.instr
	p.m.s.After(p.requestRetryDelay(), func() {
		if p.crashed || p.failed || p.instr != mi || p.busy || p.outer == nil || p.waitingFor != idx {
			return
		}
		p.sendCtrl(msgNeedInner, idx)
		p.armInnerRetry(idx, tries+1)
	})
}

// armOuterRetry re-issues a need-outer request that went unanswered.
func (p *ip) armOuterRetry(finished, tries int) {
	if tries >= maxRequestRetries {
		return
	}
	mi := p.instr
	p.m.s.After(p.requestRetryDelay(), func() {
		if p.crashed || p.failed || p.instr != mi || p.busy || p.outer != nil || len(p.queue) > 0 {
			return
		}
		p.sendCtrl(msgNeedOuter, finished)
		p.armOuterRetry(finished, tries+1)
	})
}

// firstMissing returns the smallest inner page index not yet joined.
func (p *ip) firstMissing() int {
	for i := 0; ; i++ {
		if !p.irc[i] {
			return i
		}
	}
}

// onBroadcast handles an inner-page broadcast (or the last-page
// marker). Broadcasts for other queries are ignored by the Query ID
// check; a busy processor buffers the page if it has room and otherwise
// drops it, relying on the recovery pass.
func (p *ip) onBroadcast(pkt *InstructionPacket) {
	if p.crashed || p.instr == nil || pkt.QueryID != p.instr.q.id {
		return
	}
	if len(pkt.Pages) == 0 {
		// Last-page marker: InnerPageNo holds the page count.
		if pkt.LastInner && p.innerTotal < 0 {
			p.innerTotal = pkt.InnerPageNo
		}
		p.waitingFor = -1
		p.step()
		return
	}
	idx := pkt.InnerPageNo
	if pkt.LastInner {
		p.innerTotal = idx + 1
	}
	if p.outer == nil {
		return // not joining right now
	}
	if p.irc[idx] || p.buffered(idx) || idx == p.execIdx {
		return // already joined, buffered, or being joined right now
	}
	if p.busy {
		if len(p.innerBuf) < p.m.cfg.IPBufferPages {
			p.innerBuf = append(p.innerBuf, innerEntry{idx: idx, page: pkt.Pages[0], last: pkt.LastInner})
		} else {
			// No room: ignore the page; it will be re-requested once
			// the IRC vector shows it missing.
			p.m.stats.BroadcastsIgnored++
			if p.m.tracing() {
				p.m.event(obs.EvBcastIgnored, fmt.Sprintf("IP%d", p.id), p.instr.q.id, p.instr.id, idx, 0,
					"IP%d: ignored broadcast of inner page %d (buffer full)", p.id, idx)
			}
			p.waitingFor = -1
		}
		return
	}
	p.waitingFor = -1
	p.execPair(idx, pkt.Pages[0])
}

func (p *ip) buffered(idx int) bool {
	for _, e := range p.innerBuf {
		if e.idx == idx {
			return true
		}
	}
	return false
}

// emit receives one encoded result tuple from an operator kernel.
func (p *ip) emit(raw []byte) error {
	full, err := p.pgtor.Add(raw)
	if err != nil {
		return err
	}
	if full != nil {
		if p.m.guarded() {
			p.outPages = append(p.outPages, full)
		} else {
			p.sendResult(full)
		}
	}
	return nil
}

// takeResults drains the work unit's buffered result pages, partial
// page included, for shipment inside a completion packet.
func (p *ip) takeResults() []*relation.Page {
	if last := p.pgtor.Flush(); last != nil {
		p.outPages = append(p.outPages, last)
	}
	pages := p.outPages
	p.outPages = nil
	return pages
}

// sendCompletion reports one finished work unit to the controlling IC:
// the result pages and the done indication ride one atomic packet.
func (p *ip) sendCompletion(outerNo, innerNo int) {
	mi := p.instr
	c := p.ic
	pkt := &CompletionPacket{ICID: c.id, IPID: p.id, QueryID: mi.q.id,
		OuterPageNo: outerNo, InnerPageNo: innerNo, Pages: p.takeResults()}
	size := pkt.WireSize()
	p.m.stats.ControlPackets++
	if p.m.tracing() {
		p.m.event(obs.EvControl, fmt.Sprintf("IP%d", p.id), mi.q.id, mi.id, outerNo, size,
			"IP%d -> IC%d: completion (outer %d, inner %d, %d result pages)",
			p.id, c.id, outerNo, innerNo, len(pkt.Pages))
	}
	p.m.lossyOuter(fault.ClassCompletion, size, func() { c.onCompletion(p, pkt) })
}

// flushResults drains the partial result page, if any.
func (p *ip) flushResults() {
	if last := p.pgtor.Flush(); last != nil {
		p.sendResult(last)
	}
}

// sendResult routes one result page: to the project's own IC for
// duplicate elimination, to the host at the root, directly to a
// consumer processor under DirectRouting, or to the consumer's IC.
func (p *ip) sendResult(pg *relation.Page) {
	mi := p.instr
	m := p.m

	if mi.node.Kind == query.OpProject {
		own := p.ic
		m.stats.ResultPackets++
		rp := &ResultPacket{ICID: own.id, QueryID: mi.q.id, Relation: mi.node.Label(), Page: pg}
		if m.tracing() {
			m.event(obs.EvResult, fmt.Sprintf("IP%d", p.id), mi.q.id, mi.id, -1, rp.WireSize(),
				"IP%d -> IC%d: project result page of %s", p.id, own.id, mi.node.Label())
		}
		m.sendOuter(rp.WireSize(), func() { own.onProjectResult(pg) })
		return
	}
	if mi.destIC == nil {
		q := mi.q
		m.stats.ResultPackets++
		m.noteResultOut(mi, pg.TupleCount())
		rp := &ResultPacket{ICID: -1, QueryID: mi.q.id, Relation: mi.node.Label(), Page: pg}
		if m.tracing() {
			m.event(obs.EvResult, fmt.Sprintf("IP%d", p.id), mi.q.id, mi.id, -1, rp.WireSize(),
				"IP%d -> host: result page of %s", p.id, mi.node.Label())
		}
		m.sendOuter(rp.WireSize(), func() { m.hostDeliver(q, pg) })
		return
	}
	if m.cfg.DirectRouting && mi.destInstr != nil && isUnary(mi.destInstr.node.Kind) {
		if target := mi.destIC.pickIP(); target != nil {
			mi.directSent++
			m.stats.DirectRoutedPages++
			m.stats.InstructionPackets++
			m.noteResultOut(mi, pg.TupleCount())
			dest := mi.destInstr
			pkt := &InstructionPacket{
				IPID:           target.id,
				QueryID:        mi.q.id,
				ICIDSender:     p.ic.id, // differs from the target's IC: marks direct routing
				ICIDDest:       dest.ic.destID(),
				Opcode:         dest.opcode(),
				ResultRelation: dest.node.Label(),
				ResultTupleLen: dest.outTupleLen,
				OuterPageNo:    -1,
				Pages:          []*relation.Page{pg},
			}
			if m.tracing() {
				m.event(obs.EvResult, fmt.Sprintf("IP%d", p.id), mi.q.id, mi.id, -1, pkt.WireSize(),
					"IP%d -> IP%d: direct result page of %s", p.id, target.id, mi.node.Label())
			}
			m.sendOuter(pkt.WireSize(), func() { target.receive(pkt) })
			return
		}
	}
	dest, input := mi.destIC, mi.destInput
	m.stats.ResultPackets++
	m.noteResultOut(mi, pg.TupleCount())
	rp := &ResultPacket{ICID: dest.id, QueryID: mi.q.id, Relation: mi.node.Label(), Page: pg}
	if m.tracing() {
		m.event(obs.EvResult, fmt.Sprintf("IP%d", p.id), mi.q.id, mi.id, -1, rp.WireSize(),
			"IP%d -> IC%d: result page of %s", p.id, dest.id, mi.node.Label())
	}
	m.sendOuter(rp.WireSize(), func() { dest.receiveOperand(input, pg) })
}

func isUnary(k query.OpKind) bool {
	return k == query.OpRestrict || k == query.OpProject
}

// pickIP returns one of the IC's live processors for direct routing
// (round-robin over unreleased slots), or nil when it has none.
func (c *ic) pickIP() *ip {
	if c.cur == nil || c.finished {
		return nil
	}
	n := len(c.slots)
	if n == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		s := c.slots[(c.rrNext+i)%n]
		if !s.released {
			c.rrNext = (c.rrNext + i + 1) % n
			return s.p
		}
	}
	return nil
}

func (p *ip) sendDone(pageNo int) {
	p.sendCtrl(msgDone, pageNo)
}

func (p *ip) sendCtrl(msg controlMsg, pageNo int) {
	if p.crashed {
		return
	}
	c := p.ic
	pkt := &ControlPacket{ICID: c.id, IPID: p.id, QueryID: p.instr.q.id, Message: msg, PageNo: pageNo}
	size := pkt.WireSize()
	if p.m.tracing() {
		comp := fmt.Sprintf("IP%d", p.id)
		switch msg {
		case msgNeedInner:
			p.m.event(obs.EvControl, comp, p.instr.q.id, p.instr.id, pageNo, size,
				"IP%d -> IC%d: need inner page %d", p.id, c.id, pageNo)
		case msgNeedOuter:
			p.m.event(obs.EvControl, comp, p.instr.q.id, p.instr.id, -1, size,
				"IP%d -> IC%d: outer done, need outer", p.id, c.id)
		case msgDone:
			p.m.event(obs.EvControl, comp, p.instr.q.id, p.instr.id, pageNo, size,
				"IP%d -> IC%d: done (page %d)", p.id, c.id, pageNo)
		}
	}
	p.m.stats.ControlPackets++
	p.m.lossyOuter(fault.ClassControl, size, func() { c.onControl(p, pkt) })
}
