package machine

import (
	"fmt"
	"sort"
	"time"

	"dfdbm/internal/fault"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/relation"
)

// operand is one source operand of an instruction, as seen by its IC: a
// page table filled either from the catalog (leaf operands, whose pages
// live on mass storage) or from result packets streaming in over the
// outer ring (compressed into full pages on arrival, as Section 4.2
// prescribes).
type operand struct {
	leaf       bool
	pages      []*relation.Page
	complete   bool
	compressor *relation.Page
	tupleLen   int
	// directExpected is how many pages of this operand were routed
	// IP→IP by the producer and must be accounted for by direct
	// completions.
	directExpected int
}

// ipSlot is the IC's bookkeeping for one granted processor.
type ipSlot struct {
	p         *ip
	busy      bool
	flushSent bool
	released  bool
	outerNo   int // join: outer page index being worked, -1 when none

	// span is the causal span of the packet this slot's processor is
	// working (nil when spans are off or the slot is idle).
	span *obs.Span

	// Guarded-mode (fault plan) watchdog state.
	pageNo int // unary: operand page index being worked, -1 when none
	// lastBeat is the last virtual time this processor demonstrated
	// progress (a dispatched packet, an accepted completion, a
	// broadcast it was sent).
	lastBeat time.Duration
	// watchArmed marks an active watchdog check loop for this slot.
	watchArmed bool
	// waitingProducer marks a processor blocked on an inner page the
	// producing instruction has not delivered yet; the watchdog does
	// not charge that wait against the processor.
	waitingProducer bool
}

// ic is one instruction controller.
type ic struct {
	m  *Machine
	id int

	cur   *minstr
	store *icStore
	ops   [2]*operand

	slots       []*ipSlot
	grantedIPs  int
	releasedIPs int
	// wantOutstanding counts processors requested from the MC but not
	// yet granted.
	wantOutstanding int

	// Unary dispatch state.
	dispatched int
	processed  int
	directDone int

	// Join state.
	outerNext     int
	bcastInFlight map[int]bool
	// bcastCount tracks how many times each inner page has been
	// broadcast, distinguishing first broadcasts from missed-page
	// recoveries.
	bcastCount   map[int]int
	pendingInner map[int][]*ip
	markerSent   bool

	// rrNext round-robins direct-routed pages across this IC's
	// processors.
	rrNext int

	finished bool

	// Guarded-mode (fault plan) recovery state.
	//
	// suspects are processors this IC has written off after a watchdog
	// expiry: their packets are discarded, their unfinished work
	// re-dispatched. unaryDone and joined record accepted completion
	// packets (per operand page, and per (outer, inner) join step) —
	// the IC-side dedup that makes re-dispatch exactly-once. requeue
	// holds work units awaiting re-dispatch; retries counts
	// re-dispatches per work unit against Config.RetryBudget.
	suspects  map[*ip]bool
	unaryDone map[int]bool
	joined    map[int]map[int]bool
	requeue   []int
	retries   map[int]int
	// recSpans holds the open recovery span per re-dispatched work
	// unit (spans only).
	recSpans map[int]*obs.Span
}

func newIC(m *Machine, id int) *ic { return &ic{m: m, id: id} }

// assign installs an instruction on this controller (sent by the MC
// over the inner ring).
func (c *ic) assign(mi *minstr) {
	if c.m.tracing() {
		c.m.event(obs.EvAssign, "MC", mi.q.id, mi.id, -1, 0,
			"MC -> IC%d: assign %s of query %d (result %s)",
			c.id, mi.node.Kind, mi.q.id, mi.node.Label())
	}
	if c.m.spansOn() {
		mi.span = c.m.beginSpan(obs.SpanInstr, mi.q.span, fmt.Sprintf("IC%d", c.id),
			fmt.Sprintf("%s %s", mi.node.Kind, mi.node.Label()), mi.q.id, mi.id, -1)
	}
	c.cur = mi
	c.store = newICStore(c, c.m.cfg.ICLocalPages, c.m.cfg.ICCachePages)
	c.slots = nil
	c.grantedIPs, c.releasedIPs = 0, 0
	c.wantOutstanding = 0
	c.dispatched, c.processed, c.directDone = 0, 0, 0
	c.outerNext = 0
	c.bcastInFlight = map[int]bool{}
	c.bcastCount = map[int]int{}
	c.pendingInner = map[int][]*ip{}
	c.markerSent = false
	c.finished = false
	c.suspects = map[*ip]bool{}
	c.unaryDone = map[int]bool{}
	c.joined = map[int]map[int]bool{}
	c.requeue = nil
	c.retries = map[int]int{}
	c.recSpans = nil

	for i, in := range mi.node.Inputs {
		op := &operand{tupleLen: in.Schema().TupleLen()}
		if in.Kind == query.OpScan {
			rel, err := c.m.cat.Get(in.Rel)
			if err != nil {
				c.m.fail(err)
				return
			}
			// The MC sent a page table describing the stored relation:
			// the operand is complete, its pages on mass storage.
			op.leaf = true
			op.pages = rel.Pages()
			op.complete = true
			for _, pg := range op.pages {
				c.store.addLeaf(pg)
			}
		}
		c.ops[i] = op
	}
	c.kick()
}

// isSafe reports whether every operand is complete: processors granted
// to a safe instruction never block waiting for a producer.
func (c *ic) isSafe() bool {
	if c.cur == nil {
		return true
	}
	for i := 0; i < len(c.cur.node.Inputs); i++ {
		if !c.ops[i].complete {
			return false
		}
	}
	return true
}

// enabled implements the page-level firing rule: one page of each
// operand (or a complete, empty operand).
func (c *ic) enabled() bool {
	for i := 0; i < len(c.cur.node.Inputs); i++ {
		op := c.ops[i]
		if len(op.pages) == 0 && !op.complete {
			return false
		}
	}
	return true
}

// kick advances the instruction: hand work to idle processors, return
// processors with nothing to do to the MC (hoarding idle processors
// would starve the producing instructions below — the MC must keep
// processors "distributed across all nodes in the query tree"), request
// more when work outruns the processors held, and check for completion.
func (c *ic) kick() {
	if c.cur == nil || c.finished || c.m.err != nil {
		return
	}
	for _, s := range c.slots {
		if !s.busy && !s.released {
			c.assignWork(s)
		}
	}
	// Anything still idle has no dispatchable work: give it back, except
	// that an instruction still being fed by a producer keeps one
	// processor parked for the pages about to arrive. (The MC's reserve
	// rule keeps one processor grantable to "safe" instructions, so a
	// parked processor can never starve the producers below.)
	parked := false
	var idle []*ipSlot
	for _, s := range c.slots {
		if s.busy || s.released || s.flushSent {
			continue
		}
		if !parked && !c.isSafe() && c.enabled() {
			parked = true
			continue
		}
		idle = append(idle, s)
	}
	// Released outside the range loop: the guarded release removes the
	// slot from c.slots — and may finish the instruction outright.
	for _, s := range idle {
		c.flushOrRelease(s)
	}
	if c.cur == nil || c.finished {
		return
	}
	// Ask the MC for processors whenever dispatchable work exceeds the
	// processors held (and requested), up to the per-instruction
	// allocation.
	if c.enabled() {
		capacity := c.usableSlots() + c.wantOutstanding
		want := c.pendingWork() - capacity
		if max := c.m.cfg.IPsPerInstruction - capacity; want > max {
			want = max
		}
		if want > 0 {
			c.wantOutstanding += want
			c.m.requestIPs(c, c.cur, want)
		}
	}
	c.checkDone()
}

// pendingWork counts dispatchable units: undispatched operand pages for
// unary instructions, unassigned outer pages for joins.
func (c *ic) pendingWork() int {
	switch c.cur.node.Kind {
	case query.OpJoin:
		return len(c.ops[0].pages) - c.outerNext + len(c.requeue)
	default:
		return len(c.ops[0].pages) - c.dispatched + len(c.requeue)
	}
}

// usableSlots counts processors currently held (busy or assignable).
func (c *ic) usableSlots() int {
	n := 0
	for _, s := range c.slots {
		if !s.released && !s.flushSent {
			n++
		}
	}
	return n
}

// gainIP integrates a processor granted by the MC.
func (c *ic) gainIP(p *ip) {
	if c.cur == nil || c.finished {
		c.m.releaseIP(p)
		return
	}
	if c.wantOutstanding > 0 {
		c.wantOutstanding--
	}
	c.grantedIPs++
	p.bind(c, c.cur)
	s := &ipSlot{p: p, outerNo: -1, pageNo: -1}
	c.slots = append(c.slots, s)
	c.kick()
}

// assignWork gives one idle processor its next task.
func (c *ic) assignWork(s *ipSlot) {
	if c.cur == nil || c.finished || s.busy || s.released {
		return
	}
	switch c.cur.node.Kind {
	case query.OpJoin:
		c.assignOuter(s)
	default:
		c.assignUnary(s)
	}
}

func (c *ic) assignUnary(s *ipSlot) {
	op := c.ops[0]
	idx := -1
	if len(c.requeue) > 0 {
		// Re-dispatch work lost to a fault before taking fresh pages.
		idx = c.requeue[0]
		c.requeue = c.requeue[1:]
	} else if c.dispatched < len(op.pages) {
		idx = c.dispatched
		c.dispatched++
	}
	if idx >= 0 {
		pg := op.pages[idx]
		// Under a fault plan results ride completion packets, so no
		// flush pass is needed (or wanted: it would not be fault
		// tolerant).
		flush := !c.m.guarded() && op.complete && idx == len(op.pages)-1
		s.busy = true
		s.pageNo = idx
		// Prefetch the next few pages up the hierarchy while this one
		// is fetched and shipped.
		for k := idx + 1; k < len(op.pages) && k <= idx+3; k++ {
			c.store.prefetch(op.pages[k])
		}
		c.store.get(pg, func() {
			c.sendInstr(s, &InstructionPacket{
				IPID:           s.p.id,
				QueryID:        c.cur.q.id,
				ICIDSender:     c.id,
				ICIDDest:       c.destID(),
				FlushWhenDone:  flush,
				Opcode:         c.cur.opcode(),
				ResultRelation: c.cur.node.Label(),
				ResultTupleLen: c.cur.outTupleLen,
				OuterPageNo:    idx,
				Pages:          []*relation.Page{pg},
			})
		})
		return
	}
	if op.complete {
		c.flushOrRelease(s)
	}
	// Otherwise: idle until more pages stream in.
}

// flushOrRelease retires an idle processor: one flush packet to drain
// its result buffer, then release to the MC. Under a fault plan
// processors flush into every completion packet, so their buffers are
// empty by construction and the slot is released directly.
func (c *ic) flushOrRelease(s *ipSlot) {
	if c.m.guarded() {
		if s.released {
			return
		}
		s.released = true
		c.releasedIPs++
		for i, e := range c.slots {
			if e == s {
				c.slots = append(c.slots[:i], c.slots[i+1:]...)
				break
			}
		}
		c.m.releaseIP(s.p)
		c.checkDone()
		return
	}
	if s.flushSent {
		return
	}
	s.flushSent = true
	s.busy = true
	c.sendInstr(s, &InstructionPacket{
		IPID:           s.p.id,
		QueryID:        c.cur.q.id,
		ICIDSender:     c.id,
		ICIDDest:       c.destID(),
		FlushWhenDone:  true,
		Opcode:         c.cur.opcode(),
		ResultRelation: c.cur.node.Label(),
		ResultTupleLen: c.cur.outTupleLen,
	})
}

// assignOuter hands a join processor its next outer page (with the
// first inner page when available, as in the paper's first packet).
func (c *ic) assignOuter(s *ipSlot) {
	outer, inner := c.ops[0], c.ops[1]
	idx, redispatched := -1, false
	if len(c.requeue) > 0 {
		idx = c.requeue[0]
		c.requeue = c.requeue[1:]
		redispatched = true
	} else if c.outerNext < len(outer.pages) {
		idx = c.outerNext
		c.outerNext++
	}
	if idx >= 0 {
		s.busy = true
		s.outerNo = idx
		opg := outer.pages[idx]
		// A re-dispatched outer page seeds the replacement processor's
		// IRC vector with the join steps already accepted, so only the
		// lost work is redone; the missing inner pages are re-requested
		// through the Section 4.2 recovery path rather than piggybacked.
		var seed []int
		if redispatched {
			for inIdx := range c.joined[idx] {
				seed = append(seed, inIdx)
			}
			sort.Ints(seed)
		}
		c.store.get(opg, func() {
			pkt := &InstructionPacket{
				IPID:           s.p.id,
				QueryID:        c.cur.q.id,
				ICIDSender:     c.id,
				ICIDDest:       c.destID(),
				Opcode:         c.cur.opcode(),
				ResultRelation: c.cur.node.Label(),
				ResultTupleLen: c.cur.outTupleLen,
				OuterPageNo:    idx,
				InnerPageNo:    -1,
				JoinedInner:    seed,
				Pages:          []*relation.Page{opg},
			}
			if !redispatched && len(inner.pages) > 0 {
				ipg := inner.pages[0]
				c.store.get(ipg, func() {
					pkt.InnerPageNo = 0
					pkt.LastInner = inner.complete && len(inner.pages) == 1
					pkt.Pages = append(pkt.Pages, ipg)
					c.sendInstr(s, pkt)
				})
				return
			}
			c.sendInstr(s, pkt)
		})
		return
	}
	if outer.complete {
		s.outerNo = -1
		c.flushOrRelease(s)
	}
}

func (c *ic) destID() int {
	if c.cur.node.Kind == query.OpProject {
		return c.id // serial duplicate elimination at this controller
	}
	if c.cur.destIC == nil {
		return -1 // host
	}
	return c.cur.destIC.id
}

func (c *ic) sendInstr(s *ipSlot, pkt *InstructionPacket) {
	c.m.stats.InstructionPackets++
	size := pkt.WireSize()
	mi := c.cur
	if c.m.tracing() {
		if len(pkt.Pages) == 0 {
			c.m.event(obs.EvInstr, fmt.Sprintf("IC%d", c.id), mi.q.id, mi.id, -1, size,
				"IC%d -> IP%d: flush", c.id, s.p.id)
		} else {
			c.m.event(obs.EvInstr, fmt.Sprintf("IC%d", c.id), mi.q.id, mi.id, pkt.OuterPageNo, size,
				"IC%d -> IP%d: %s page %d of %s (flush=%v, %d operands)",
				c.id, s.p.id, query.OpKind(pkt.Opcode), pkt.OuterPageNo,
				pkt.ResultRelation, pkt.FlushWhenDone, len(pkt.Pages))
		}
	}
	if c.m.spansOn() {
		name, page := "flush packet", -1
		if len(pkt.Pages) > 0 {
			name, page = "instr packet", pkt.OuterPageNo
			mi.span.Firings.Add(1)
		}
		c.m.endSpan(s.span) // a prior packet span left open ends here
		s.span = c.m.beginSpan(obs.SpanPacket, mi.span, fmt.Sprintf("IP%d", s.p.id),
			name, mi.q.id, mi.id, page)
		s.span.Bytes.Add(int64(size))
	}
	p := s.p
	if c.m.guarded() {
		// Arm the watchdog for this processor: the packet is now
		// outstanding, and only evidence of progress (completions,
		// broadcasts sent to it) resets the clock.
		s.lastBeat = c.m.s.Now()
		if !s.watchArmed {
			s.watchArmed = true
			c.m.s.After(c.m.cfg.WatchdogTimeout, func() { c.watchdogCheck(s, mi) })
		}
		c.m.lossyOuter(fault.ClassInstruction, size, func() { p.receive(pkt) })
		return
	}
	c.m.sendOuter(size, func() { p.receive(pkt) })
}

// watchdogCheck is the IC's virtual-time watchdog loop for one busy
// slot: if the processor has shown no progress for a full
// WatchdogTimeout (and is not waiting on an unproduced inner page), it
// is suspected. The loop disarms when the slot goes idle and is
// re-armed by the next dispatch.
func (c *ic) watchdogCheck(s *ipSlot, mi *minstr) {
	if c.m.err != nil || c.cur != mi || c.finished || s.released || c.suspects[s.p] {
		s.watchArmed = false
		return
	}
	if !s.busy {
		s.watchArmed = false
		return
	}
	now := c.m.s.Now()
	deadline := s.lastBeat + c.m.cfg.WatchdogTimeout
	if s.waitingProducer || now < deadline {
		wait := deadline - now
		if s.waitingProducer || wait <= 0 {
			wait = c.m.cfg.WatchdogTimeout
		}
		c.m.s.After(wait, func() { c.watchdogCheck(s, mi) })
		return
	}
	c.suspect(s)
}

// suspect writes off a processor whose watchdog expired: report it to
// the MC over the inner ring, reclaim the slot, and re-queue its
// unfinished work unit. A suspected processor that was merely slow is
// harmless — its late packets are discarded and its work unit runs
// again elsewhere, deduplicated on acceptance.
func (c *ic) suspect(s *ipSlot) {
	p := s.p
	c.suspects[p] = true
	c.m.stats.WatchdogTimeouts++
	mi := c.cur
	if c.m.tracing() {
		c.m.event(obs.EvFault, fmt.Sprintf("IC%d", c.id), mi.q.id, mi.id, s.pageNo, 0,
			"IC%d: watchdog expired for IP %d (no progress for %v)", c.id, p.id, c.m.cfg.WatchdogTimeout)
	}
	// The packet died with its processor.
	c.m.endSpan(s.span)
	s.span = nil
	// The failure report is an inner-ring control message to the MC,
	// which marks the processor failed machine-wide.
	c.m.stats.ControlPackets++
	c.m.innerSend(c.m.cfg.HW.ControlBytes, func() { c.m.ipSuspected(p, c.id) })
	for i, e := range c.slots {
		if e == s {
			c.slots = append(c.slots[:i], c.slots[i+1:]...)
			break
		}
	}
	idx := s.pageNo
	if mi.node.Kind == query.OpJoin {
		idx = s.outerNo
	}
	if idx >= 0 && !c.workUnitDone(idx) {
		c.queueRedispatch(idx)
	}
	c.kick()
}

// workUnitDone reports whether work unit idx (operand page, or join
// outer page) has been fully accepted.
func (c *ic) workUnitDone(idx int) bool {
	if c.cur.node.Kind == query.OpJoin {
		return c.fullyJoined(idx)
	}
	return c.unaryDone[idx]
}

// fullyJoined reports whether outer page idx has accepted join steps
// against every inner page.
func (c *ic) fullyJoined(idx int) bool {
	inner := c.ops[1]
	return inner.complete && len(c.joined[idx]) >= len(inner.pages)
}

// queueRedispatch schedules work unit idx for re-dispatch, charging its
// retry budget; past the budget the whole run fails with a FaultError
// (within the watchdog bound — better a typed error than a silent
// hang).
func (c *ic) queueRedispatch(idx int) {
	if c.m.err != nil {
		return
	}
	mi := c.cur
	c.retries[idx]++
	if c.retries[idx] > c.m.cfg.RetryBudget {
		c.m.fail(&FaultError{QueryID: mi.q.id, Instr: mi.id, Page: idx,
			Retries: c.retries[idx] - 1, Reason: "retry budget exhausted"})
		return
	}
	c.m.stats.Redispatches++
	if c.m.tracing() {
		c.m.event(obs.EvRecovery, fmt.Sprintf("IC%d", c.id), mi.q.id, mi.id, idx, 0,
			"IC%d: re-dispatch work unit %d (attempt %d)", c.id, idx, c.retries[idx]+1)
	}
	if c.m.spansOn() && c.recSpans[idx] == nil {
		if c.recSpans == nil {
			c.recSpans = map[int]*obs.Span{}
		}
		c.recSpans[idx] = c.m.beginSpan(obs.SpanRecovery, mi.span, fmt.Sprintf("IC%d", c.id),
			fmt.Sprintf("re-dispatch unit %d", idx), mi.q.id, mi.id, idx)
	}
	c.requeue = append(c.requeue, idx)
}

// onCompletion accepts one atomic work-unit completion from a
// processor: the IC-side serialization point of the guarded protocol.
// Completions from suspected or stale processors are discarded whole —
// their work units were (or will be) re-dispatched — and accepted
// units are deduplicated, so every work unit lands exactly once no
// matter how packets were lost, duplicated, or raced by recovery.
func (c *ic) onCompletion(p *ip, pkt *CompletionPacket) {
	if c.cur == nil || c.finished || p.instr != c.cur || pkt.QueryID != c.cur.q.id {
		return
	}
	if p.failed || c.suspects[p] {
		if c.m.tracing() {
			c.m.event(obs.EvFault, fmt.Sprintf("IC%d", c.id), pkt.QueryID, c.cur.id, pkt.OuterPageNo, 0,
				"IC%d: discarded completion from failed IP %d", c.id, p.id)
		}
		return
	}
	s := c.slot(p)
	if s != nil {
		s.lastBeat = c.m.s.Now()
	}
	if pkt.InnerPageNo >= 0 {
		// One join step of outer page OuterPageNo.
		jm := c.joined[pkt.OuterPageNo]
		if jm == nil {
			jm = map[int]bool{}
			c.joined[pkt.OuterPageNo] = jm
		}
		if jm[pkt.InnerPageNo] {
			return // already accepted from an earlier incarnation
		}
		jm[pkt.InnerPageNo] = true
		if c.retries[pkt.OuterPageNo] > 0 && c.fullyJoined(pkt.OuterPageNo) {
			c.noteRecovered(pkt.OuterPageNo)
		}
	} else {
		if c.unaryDone[pkt.OuterPageNo] {
			return
		}
		c.unaryDone[pkt.OuterPageNo] = true
		c.processed++
		if c.retries[pkt.OuterPageNo] > 0 {
			c.noteRecovered(pkt.OuterPageNo)
		}
		if s != nil {
			s.busy = false
			s.pageNo = -1
			c.m.endSpan(s.span)
			s.span = nil
		}
	}
	for _, pg := range pkt.Pages {
		c.routeResult(pg)
	}
	c.kick()
}

// noteRecovered records that a re-dispatched work unit made it.
func (c *ic) noteRecovered(idx int) {
	c.m.stats.RecoveredPages++
	mi := c.cur
	if c.m.tracing() {
		c.m.event(obs.EvRecovery, fmt.Sprintf("IC%d", c.id), mi.q.id, mi.id, idx, 0,
			"IC%d: re-dispatched work unit %d completed", c.id, idx)
	}
	if s := c.recSpans[idx]; s != nil {
		c.m.endSpan(s)
		delete(c.recSpans, idx)
	}
}

// routeResult forwards one result page from an accepted completion.
func (c *ic) routeResult(pg *relation.Page) {
	if pg == nil || pg.Empty() {
		return
	}
	if c.cur.node.Kind == query.OpProject {
		c.onProjectResult(pg)
		return
	}
	c.forwardResult(pg)
}

// ---- Operand reception (the distribution network's target) ----

// receiveOperand integrates one arriving result page into operand
// `input`, compressing partial pages into full pages.
func (c *ic) receiveOperand(input int, pg *relation.Page) {
	if c.cur == nil || c.finished {
		c.m.fail(fmt.Errorf("IC %d received a page with no instruction", c.id))
		return
	}
	op := c.ops[input]
	if pg.TupleLen() != op.tupleLen {
		c.m.fail(fmt.Errorf("IC %d: page tuple length %d, operand needs %d", c.id, pg.TupleLen(), op.tupleLen))
		return
	}
	for _, full := range compress(op, pg) {
		c.addOperandPage(input, full)
	}
	if pg.Empty() && op.compressor != pg {
		// The arriving partial page was fully drained into the
		// compression buffer: the page itself is dead.
		c.m.recycle(pg)
	}
	c.kick()
}

// compress folds pg into the operand's compression buffer and returns
// any full pages now available.
func compress(op *operand, pg *relation.Page) []*relation.Page {
	if pg.Empty() {
		return nil
	}
	if pg.Full() {
		return []*relation.Page{pg}
	}
	if op.compressor == nil {
		op.compressor = pg
		return nil
	}
	var out []*relation.Page
	if _, err := op.compressor.FillFrom(pg); err == nil && op.compressor.Full() {
		out = append(out, op.compressor)
		op.compressor = nil
		if !pg.Empty() {
			op.compressor = pg
		}
	}
	return out
}

// addOperandPage registers a full (or final partial) page of an operand
// and wakes anything waiting for it.
func (c *ic) addOperandPage(input int, pg *relation.Page) {
	op := c.ops[input]
	idx := len(op.pages)
	op.pages = append(op.pages, pg)
	c.store.put(pg)
	if c.cur.node.Kind == query.OpJoin && input == 1 {
		// Newly arrived inner page: satisfy deferred requests.
		if waiters := c.pendingInner[idx]; len(waiters) > 0 {
			delete(c.pendingInner, idx)
			c.broadcastInner(idx)
		}
	}
}

// operandComplete records the end of a streamed operand. directCount is
// the producer's count of direct-routed pages (Section 5 extension).
func (c *ic) operandComplete(input int, directCount int) {
	if c.cur == nil || c.finished {
		return
	}
	op := c.ops[input]
	if op.compressor != nil && !op.compressor.Empty() {
		c.addOperandPage(input, op.compressor)
		op.compressor = nil
	}
	op.complete = true
	op.directExpected = directCount
	if c.cur.node.Kind == query.OpJoin && input == 1 {
		// Requests beyond the final page are answered with the
		// last-page marker so IPs can reconcile their IRC vectors.
		for idx, waiters := range c.pendingInner {
			if idx >= len(op.pages) && len(waiters) > 0 {
				delete(c.pendingInner, idx)
				c.sendMarker()
			}
		}
	}
	c.kick()
}

// ---- Control packets from processors ----

func (c *ic) onControl(p *ip, pkt *ControlPacket) {
	if c.cur == nil {
		return
	}
	if c.m.guarded() && (p.failed || c.suspects[p] || p.instr != c.cur) {
		if c.m.tracing() {
			c.m.event(obs.EvFault, fmt.Sprintf("IC%d", c.id), pkt.QueryID, c.cur.id, pkt.PageNo, 0,
				"IC%d: discarded control packet from failed IP %d", c.id, p.id)
		}
		return
	}
	switch pkt.Message {
	case msgDone:
		switch pkt.PageNo {
		case flushDonePage:
			c.retire(p)
		case directDonePage:
			c.directDone++
			c.kick()
		default:
			c.processed++
			if s := c.slot(p); s != nil {
				s.busy = false
				c.m.endSpan(s.span)
				s.span = nil
			}
			c.kick()
		}
	case msgNeedInner:
		c.onNeedInner(p, pkt.PageNo)
	case msgNeedOuter:
		if s := c.slot(p); s != nil {
			if c.m.guarded() {
				// The guarded request names the outer page it finishes,
				// so a late retry of an already-accepted request is
				// recognized and ignored.
				if s.outerNo < 0 || s.outerNo != pkt.PageNo {
					break
				}
				idx := s.outerNo
				s.lastBeat = c.m.s.Now()
				s.busy = false
				s.outerNo = -1
				c.m.endSpan(s.span)
				s.span = nil
				if !c.fullyJoined(idx) {
					// The processor believes the page is done but some
					// join-step completions were lost in transit:
					// re-dispatch it (seeded with what was accepted).
					c.queueRedispatch(idx)
				}
				c.kick()
				return
			}
			s.busy = false
			s.outerNo = -1
			c.m.endSpan(s.span)
			s.span = nil
		}
		c.kick()
	}
}

// Sentinel page numbers in done control packets.
const (
	flushDonePage  = -2
	directDonePage = -3
)

func (c *ic) slot(p *ip) *ipSlot {
	for _, s := range c.slots {
		if s.p == p {
			return s
		}
	}
	return nil
}

// retire releases a flushed processor back to the MC. The slot is
// removed outright: the processor may be re-granted to this same IC
// later, and a stale slot would alias it.
func (c *ic) retire(p *ip) {
	s := c.slot(p)
	if s == nil || s.released {
		return
	}
	s.released = true
	s.busy = false
	c.m.endSpan(s.span)
	s.span = nil
	c.releasedIPs++
	for i, e := range c.slots {
		if e == s {
			c.slots = append(c.slots[:i], c.slots[i+1:]...)
			break
		}
	}
	c.m.releaseIP(p)
	c.checkDone()
}

// onNeedInner implements the IC side of the broadcast-join protocol.
func (c *ic) onNeedInner(p *ip, idx int) {
	inner := c.ops[1]
	if idx >= len(inner.pages) {
		if inner.complete {
			// The IP has requested past the end: tell everyone where
			// the inner relation ends.
			c.sendMarker()
			return
		}
		// The page does not exist yet: the processor is waiting on the
		// producing instruction, which must not count against its
		// watchdog.
		if s := c.slot(p); s != nil {
			s.waitingProducer = true
		}
		c.pendingInner[idx] = append(c.pendingInner[idx], p)
		return
	}
	c.broadcastInner(idx)
}

// broadcastInner broadcasts inner page idx to every processor working
// on this join. Requests received while the broadcast is in flight are
// ignored ("subsequent requests for the same page ... can be ignored");
// a repeated request after delivery is a missed-page recovery and
// triggers a fresh broadcast.
func (c *ic) broadcastInner(idx int) {
	if c.bcastInFlight[idx] {
		return
	}
	if c.bcastCount == nil {
		c.bcastCount = map[int]int{}
	}
	if c.bcastCount[idx] > 0 {
		c.m.stats.RecoveryRequests++
	}
	c.bcastCount[idx]++
	c.bcastInFlight[idx] = true
	inner := c.ops[1]
	pg := inner.pages[idx]
	c.store.get(pg, func() {
		if c.cur == nil || c.finished {
			return
		}
		pkt := &InstructionPacket{
			QueryID:        c.cur.q.id,
			ICIDSender:     c.id,
			ICIDDest:       c.destID(),
			Opcode:         c.cur.opcode(),
			ResultRelation: c.cur.node.Label(),
			ResultTupleLen: c.cur.outTupleLen,
			Broadcast:      true,
			InnerPageNo:    idx,
			LastInner:      inner.complete && idx == len(inner.pages)-1,
			Pages:          []*relation.Page{pg},
		}
		c.m.stats.Broadcasts++
		if c.m.tracing() {
			c.m.event(obs.EvBroadcast, fmt.Sprintf("IC%d", c.id), c.cur.q.id, c.cur.id, idx, pkt.WireSize(),
				"IC%d: broadcast inner page %d (last=%v)", c.id, idx, pkt.LastInner)
		}
		var bspan *obs.Span
		if c.m.spansOn() {
			bspan = c.m.beginSpan(obs.SpanBroadcast, c.cur.span, fmt.Sprintf("IC%d", c.id),
				fmt.Sprintf("broadcast inner %d", idx), c.cur.q.id, c.cur.id, idx)
			bspan.Bytes.Add(int64(pkt.WireSize()))
		}
		deliver := c.broadcastTargets(pkt)
		c.m.broadcastOuter(pkt.WireSize(), append(deliver, func() {
			c.bcastInFlight[idx] = false
			c.m.endSpan(bspan)
		}))
	})
}

// broadcastTargets builds the per-recipient delivery closures for a
// broadcast. Under a fault plan each recipient's delivery is an
// independent drop draw (a broadcast can reach some processors and miss
// others), recipients get a progress beat (the IC just fed them), and a
// parked producer wait ends.
func (c *ic) broadcastTargets(pkt *InstructionPacket) []func() {
	var deliver []func()
	guarded := c.m.guarded()
	now := c.m.s.Now()
	for _, s := range c.slots {
		if s.released {
			continue
		}
		p := s.p
		if guarded {
			s.lastBeat = now
			s.waitingProducer = false
			deliver = append(deliver, c.m.lossyDeliver(fault.ClassBroadcast, func() { p.onBroadcast(pkt) }))
			continue
		}
		deliver = append(deliver, func() { p.onBroadcast(pkt) })
	}
	return deliver
}

// sendMarker broadcasts the "that was the last inner page" indication.
// Requests while a marker is in flight are ignored (they will see it);
// a later request triggers a fresh marker, so processors granted after
// the first marker still learn the inner relation's extent.
func (c *ic) sendMarker() {
	if c.markerSent {
		return
	}
	c.markerSent = true
	inner := c.ops[1]
	pkt := &InstructionPacket{
		QueryID:     c.cur.q.id,
		ICIDSender:  c.id,
		Opcode:      c.cur.opcode(),
		Broadcast:   true,
		LastInner:   true,
		InnerPageNo: len(inner.pages),
	}
	c.m.stats.Broadcasts++
	deliver := c.broadcastTargets(pkt)
	c.m.broadcastOuter(pkt.WireSize(), append(deliver, func() { c.markerSent = false }))
}

// onProjectResult receives a project processor's (not yet
// deduplicated) output and performs the serial duplicate elimination of
// the baseline algorithm.
func (c *ic) onProjectResult(pg *relation.Page) {
	if c.cur == nil || c.finished {
		return
	}
	mi := c.cur
	n := pg.TupleCount()
	for i := 0; i < n; i++ {
		raw := pg.RawTuple(i)
		if !mi.dedup.Add(raw) {
			continue
		}
		full, err := mi.outPag.Add(raw)
		if err != nil {
			c.m.fail(err)
			return
		}
		if full != nil {
			c.forwardResult(full)
		}
	}
	// Every tuple now lives in the dedup set or the output paginator;
	// the carrier page is dead.
	c.m.recycle(pg)
}

// forwardResult ships a finished result page toward the consumer (used
// by project instructions, whose results pass through their own IC).
func (c *ic) forwardResult(pg *relation.Page) {
	mi := c.cur
	c.m.stats.ResultPackets++
	c.m.noteResultOut(mi, pg.TupleCount())
	rp := &ResultPacket{QueryID: mi.q.id, Relation: mi.node.Label(), Page: pg}
	if mi.destIC == nil {
		q := mi.q
		c.m.reliableSend(relKey{from: c.id, to: -1}, fault.ClassResult,
			rp.WireSize(), func() { c.m.hostDeliver(q, pg) })
		return
	}
	dest, input := mi.destIC, mi.destInput
	rp.ICID = dest.id
	c.m.reliableSend(relKey{from: c.id, to: dest.id}, fault.ClassResult,
		rp.WireSize(), func() { dest.receiveOperand(input, pg) })
}

// ---- Completion ----

func (c *ic) checkDone() {
	if c.cur == nil || c.finished {
		return
	}
	mi := c.cur
	switch mi.node.Kind {
	case query.OpJoin:
		outer, inner := c.ops[0], c.ops[1]
		if !outer.complete || !inner.complete {
			return
		}
		if c.outerNext < len(outer.pages) || len(c.requeue) > 0 {
			return
		}
		if c.m.guarded() {
			// Done means accepted, not dispatched: every outer page must
			// have an accepted join step against every inner page.
			for idx := 0; idx < len(outer.pages); idx++ {
				if !c.fullyJoined(idx) {
					return
				}
			}
		}
		if len(c.slots) != 0 {
			return
		}
	default:
		op := c.ops[0]
		if !op.complete || c.dispatched < len(op.pages) || c.processed < c.dispatched {
			return
		}
		if len(c.requeue) > 0 {
			return
		}
		if c.m.guarded() {
			for idx := 0; idx < len(op.pages); idx++ {
				if !c.unaryDone[idx] {
					return
				}
			}
		}
		if c.directDone < op.directExpected {
			return
		}
		if len(c.slots) != 0 {
			return
		}
	}
	c.finish()
}

func (c *ic) finish() {
	mi := c.cur
	if c.m.tracing() {
		c.m.event(obs.EvInstrDone, fmt.Sprintf("IC%d", c.id), mi.q.id, mi.id, -1, 0,
			"IC%d: instruction %s of query %d complete (%d packets dispatched)",
			c.id, mi.node.Kind, mi.q.id, c.dispatched)
	}
	c.finished = true
	// Project: flush the deduplicated output.
	if mi.node.Kind == query.OpProject {
		if last := mi.outPag.Flush(); last != nil {
			c.forwardResult(last)
		}
	}
	// Tell the consumer the operand is complete (with the count of
	// direct-routed pages it should expect completions for), and tell
	// the MC the instruction is finished.
	if mi.destInstr != nil {
		dest, input, direct := mi.destIC, mi.destInput, mi.directSent
		cp := &ControlPacket{ICID: dest.id, QueryID: mi.q.id, Message: msgDone}
		c.m.stats.ControlPackets++
		// The operand-complete marker shares the result pages' reliable
		// FIFO flow, so it can never overtake (or be lost behind) the
		// pages it finalizes.
		c.m.reliableSend(relKey{from: c.id, to: dest.id}, fault.ClassResult,
			cp.WireSize(), func() { dest.operandComplete(input, direct) })
	}
	c.m.endSpan(mi.span)
	c.cur = nil
	c.m.innerSend(c.m.cfg.HW.ControlBytes, func() { c.m.instrFinished(mi) })
}
