package machine

import (
	"fmt"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/fault"
	"dfdbm/internal/obs"
	"dfdbm/internal/pred"
	"dfdbm/internal/query"
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
	"dfdbm/internal/sim"
)

// Machine is one simulated instance of the Section 4 design.
type Machine struct {
	cfg Config
	cat *catalog.Catalog
	s   *sim.Sim
	// obs is the observability layer, cfg.Obs: nil when disabled.
	obs *obs.Observer

	outer *sim.Station // the 40 Mbps data ring
	inner *sim.Station // the 1–2 Mbps control ring
	disk  *sim.Station // mass storage (NumDisks drives)

	ics     []*ic
	ips     []*ip
	freeICs []*ic
	freeIPs []*ip
	// ipRequests is the MC's FIFO of unsatisfied IP allocations.
	ipRequests []*ipRequest

	queue   []*mquery // submitted, not yet admitted
	active  []*mquery
	locks   map[string]*lockEntry
	nextQID int

	results []QueryResult
	stats   Stats
	ipBusy  time.Duration
	err     error

	// mcCost is the attribution-only per-message MC handling cost
	// charged to the machine.mc_busy_us timeline; mcFree serializes the
	// charges so the single MC never appears more than 100% busy in any
	// bucket (see observeMC).
	mcCost time.Duration
	mcFree time.Duration

	// plan is the fault plan (nil in the fault-free machine); rel holds
	// the reliable ARQ channels of the guarded transport.
	plan *fault.Plan
	rel  map[relKey]*relChannel

	// kstats aggregates join-kernel counters across the machine's IPs.
	kstats relalg.KernelStats

	// dedupFree recycles project-instruction dedup trackers: when an
	// instruction finishes its tracker is Reset (a pure truncation) and
	// reused by the next project instruction, so steady-state admission
	// allocates no dedup state.
	dedupFree []*relalg.Dedup
}

type lockEntry struct {
	readers int
	writer  bool
}

type ipRequest struct {
	ic    *ic
	instr *minstr
	want  int
}

// New builds a machine over the catalog.
func New(cat *catalog.Catalog, cfg Config) (*Machine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		cat:   cat,
		s:     sim.New(),
		obs:   cfg.Obs,
		locks: map[string]*lockEntry{},
		plan:  cfg.Fault,
		rel:   map[relKey]*relChannel{},
	}
	m.mcCost = cfg.HW.InnerRing.SerializationTime(cfg.HW.ControlBytes)
	m.outer = sim.NewStation(m.s, 1)
	m.inner = sim.NewStation(m.s, 1)
	m.disk = sim.NewStation(m.s, cfg.HW.NumDisks)
	for i := 0; i < cfg.ICs; i++ {
		c := newIC(m, i)
		m.ics = append(m.ics, c)
		m.freeICs = append(m.freeICs, c)
	}
	for i := 0; i < cfg.IPs; i++ {
		p := &ip{m: m, id: i}
		m.ips = append(m.ips, p)
		m.freeIPs = append(m.freeIPs, p)
	}
	return m, nil
}

// mquery is one submitted query.
type mquery struct {
	id        int
	tree      *query.Tree
	fp        query.Footprint
	instrs    []*minstr // operator nodes in post order
	remaining int
	result    *relation.Relation
	submitted time.Duration
	started   time.Duration
	delayed   bool
	// span is the query's causal span (nil when spans are off).
	span *obs.Span
	// effect describes an Append/Delete root applied host-side.
	effectKind query.OpKind
	effectNode *query.Node
}

// minstr is one instruction of a query.
type minstr struct {
	q *mquery
	// id is the instruction's index within its query (the instruction
	// ID carried by structured trace events).
	id   int
	node *query.Node
	ic   *ic
	// destIC receives result pages; nil means the host (query root).
	destIC    *ic
	destInput int
	// destInstr is the consuming instruction (nil at the root).
	destInstr *minstr
	// span is the instruction's causal span, opened when the IC
	// installs it (nil when spans are off).
	span *obs.Span

	outTupleLen int
	outPageSize int

	// Bound operator kernels, prepared at admission. restrict and
	// project are the batched kernel states; the simulator is a
	// single-threaded event loop, so one state per instruction is safe
	// even when several IPs are assigned to it.
	boundPred pred.Bound
	boundJoin *pred.BoundJoin
	restrict  *relalg.RestrictState
	projector *relalg.Projector
	project   *relalg.ProjectState
	// Serial-IC duplicate elimination state for project instructions.
	dedup  *relalg.Dedup
	outPag *relation.Paginator
	// directSent counts result pages routed IP→IP under DirectRouting;
	// the consumer IC must see that many direct completions before the
	// operand counts as fully processed.
	directSent int
}

func (mi *minstr) opcode() uint8 { return uint8(mi.node.Kind) }

// prep binds the instruction's kernels against its input schemas.
func (mi *minstr) prep(m *Machine) error {
	n := mi.node
	switch n.Kind {
	case query.OpRestrict:
		b, err := n.Pred.Bind(n.Inputs[0].Schema())
		if err != nil {
			return err
		}
		mi.boundPred = b
		mi.restrict = relalg.NewRestrictState(b)
	case query.OpJoin:
		b, err := n.Join.Bind(n.Inputs[0].Schema(), n.Inputs[1].Schema())
		if err != nil {
			return err
		}
		mi.boundJoin = b
	case query.OpProject:
		p, err := relalg.NewProjector(n.Inputs[0].Schema(), n.Cols...)
		if err != nil {
			return err
		}
		mi.projector = p
		mi.project = relalg.NewProjectState(p)
		mi.dedup = m.getDedup()
		pag, err := relation.NewPaginator(mi.outPageSize, mi.outTupleLen)
		if err != nil {
			return err
		}
		mi.outPag = pag
	}
	return nil
}

// getDedup draws a reset dedup tracker from the freelist, or makes one.
func (m *Machine) getDedup() *relalg.Dedup {
	if n := len(m.dedupFree); n > 0 {
		d := m.dedupFree[n-1]
		m.dedupFree = m.dedupFree[:n-1]
		return d
	}
	return relalg.NewDedup()
}

// Submit enqueues a bound query for execution. The query must fit the
// machine: one IC per operator node.
func (m *Machine) Submit(t *query.Tree) error {
	nOps := 0
	for _, n := range t.Nodes() {
		if n.Kind != query.OpScan && n.Kind != query.OpAppend && n.Kind != query.OpDelete {
			nOps++
		}
	}
	if nOps > m.cfg.ICs {
		return fmt.Errorf("machine: query has %d instructions but the machine has %d ICs", nOps, m.cfg.ICs)
	}
	q := &mquery{
		id:        m.nextQID,
		tree:      t,
		fp:        query.Analyze(t.Root()),
		submitted: m.s.Now(),
	}
	m.nextQID++
	root := t.Root()
	if root.Kind == query.OpAppend || root.Kind == query.OpDelete {
		q.effectKind = root.Kind
		q.effectNode = root
	}
	m.queue = append(m.queue, q)
	return nil
}

// Run executes all submitted queries to completion and reports.
func (m *Machine) Run() (*Results, error) {
	if m.guarded() {
		m.scheduleCrashes()
	}
	ps0 := relation.PageStats()
	m.s.After(0, m.tryAdmit)
	end := m.s.Run()
	if m.err != nil {
		return nil, m.err
	}
	if len(m.queue) > 0 || len(m.active) > 0 {
		return nil, fmt.Errorf("machine: stalled with %d queued and %d active queries",
			len(m.queue), len(m.active))
	}
	ps := relation.PageStats()
	ks := m.kstats.Load()
	m.stats.PoolHits, m.stats.PoolMisses = ps.Hits-ps0.Hits, ps.Misses-ps0.Misses
	m.stats.PagesRecycled = ps.Recycled - ps0.Recycled
	m.stats.HashProbes, m.stats.HashBuilds = ks.HashProbes, ks.HashBuilds
	m.stats.HashTableHits, m.stats.NestedPairs = ks.TableHits, ks.NestedPairs
	res := &Results{PerQuery: m.results, Stats: m.stats}
	var last time.Duration
	for _, qr := range m.results {
		if qr.Finished > last {
			last = qr.Finished
		}
	}
	res.Elapsed = last
	_ = end
	// Sweep up spans that never closed (e.g. packets lost to faults) so
	// the profile accounts for the whole makespan.
	m.obs.Spans().CloseAt(last)
	if last > 0 {
		res.OuterRingUtilization = m.outer.Utilization(last)
		res.IPUtilization = float64(m.ipBusy) / (float64(last) * float64(len(m.ips)))
	}
	m.exportMetrics(res)
	if err := m.obs.Err(); err != nil {
		return nil, fmt.Errorf("machine: trace sink: %w", err)
	}
	return res, nil
}

// exportMetrics re-expresses the run's Stats and derived figures through
// the metrics registry, alongside the virtual-time timelines recorded
// while running.
func (m *Machine) exportMetrics(res *Results) {
	o := m.obs
	if !o.MetricsOn() {
		return
	}
	r := o.Registry()
	s := res.Stats
	r.Inc("machine.outer_ring_packets", s.OuterRingPackets)
	r.Inc("machine.outer_ring_bytes_total", s.OuterRingBytes)
	r.Inc("machine.inner_ring_packets", s.InnerRingPackets)
	r.Inc("machine.inner_ring_bytes_total", s.InnerRingBytes)
	r.Inc("machine.instruction_packets", s.InstructionPackets)
	r.Inc("machine.result_packets", s.ResultPackets)
	r.Inc("machine.control_packets", s.ControlPackets)
	r.Inc("machine.broadcasts", s.Broadcasts)
	r.Inc("machine.broadcasts_ignored", s.BroadcastsIgnored)
	r.Inc("machine.recovery_requests", s.RecoveryRequests)
	r.Inc("machine.disk_reads", s.DiskReads)
	r.Inc("machine.disk_writes", s.DiskWrites)
	r.Inc("machine.cache_reads", s.CacheReads)
	r.Inc("machine.cache_writes", s.CacheWrites)
	r.Inc("machine.direct_routed_pages", s.DirectRoutedPages)
	r.Inc("machine.pool_hits", s.PoolHits)
	r.Inc("machine.pool_misses", s.PoolMisses)
	r.Inc("machine.pages_recycled", s.PagesRecycled)
	r.Inc("machine.join_hash_probes", s.HashProbes)
	r.Inc("machine.join_hash_builds", s.HashBuilds)
	r.Inc("machine.join_table_hits", s.HashTableHits)
	r.Inc("machine.join_nested_pairs", s.NestedPairs)
	r.Inc("machine.queries_delayed_by_conflict", s.QueriesDelayedByConflict)
	r.Inc("machine.faults_injected", s.FaultsInjected)
	r.Inc("machine.packets_dropped", s.PacketsDropped)
	r.Inc("machine.packets_duplicated", s.PacketsDuplicated)
	r.Inc("machine.ips_crashed", s.IPsCrashed)
	r.Inc("machine.ips_failed", s.IPsFailed)
	r.Inc("machine.watchdog_timeouts", s.WatchdogTimeouts)
	r.Inc("machine.redispatches", s.Redispatches)
	r.Inc("machine.recovered_pages", s.RecoveredPages)
	r.Inc("machine.retransmits", s.Retransmits)
	r.SetGauge("machine.elapsed_seconds", res.Elapsed.Seconds())
	r.SetGauge("machine.outer_ring_utilization", res.OuterRingUtilization)
	r.SetGauge("machine.outer_ring_mbps", res.OuterRingMbps())
	r.SetGauge("machine.ip_utilization", res.IPUtilization)
	if reads := s.CacheReads + s.DiskReads; reads > 0 {
		r.SetGauge("machine.cache_hit_rate", float64(s.CacheReads)/float64(reads))
	}
	if res.Elapsed > 0 {
		for _, p := range m.ips {
			r.SetGauge(fmt.Sprintf("machine.ip%d_busy_fraction", p.id),
				float64(p.busyTotal)/float64(res.Elapsed))
		}
	}
}

// recycle hands a dead intermediate page back to the page free list.
// Recycling is disabled entirely under the guarded (fault-injecting)
// protocol: retransmit closures and duplicated packets may still alias
// a page after its consumer has drained it.
func (m *Machine) recycle(pg *relation.Page) {
	if m.guarded() {
		return
	}
	pg.Release()
}

func (m *Machine) fail(err error) {
	if m.err == nil && err != nil {
		m.err = fmt.Errorf("machine: %w", err)
	}
}

// ---- Master controller: admission, concurrency control, allocation ----

// conflicts reports whether q's footprint conflicts with any running
// query.
func (m *Machine) conflicts(q *mquery) bool {
	for _, rel := range q.fp.Reads {
		if e, ok := m.locks[rel]; ok && e.writer {
			return true
		}
	}
	for _, rel := range q.fp.Writes {
		if e, ok := m.locks[rel]; ok && (e.writer || e.readers > 0) {
			return true
		}
	}
	return false
}

func (m *Machine) lock(q *mquery) {
	for _, rel := range q.fp.Reads {
		e := m.locks[rel]
		if e == nil {
			e = &lockEntry{}
			m.locks[rel] = e
		}
		e.readers++
	}
	for _, rel := range q.fp.Writes {
		e := m.locks[rel]
		if e == nil {
			e = &lockEntry{}
			m.locks[rel] = e
		}
		e.writer = true
	}
}

func (m *Machine) unlock(q *mquery) {
	for _, rel := range q.fp.Reads {
		if e := m.locks[rel]; e != nil {
			e.readers--
			if e.readers == 0 && !e.writer {
				delete(m.locks, rel)
			}
		}
	}
	for _, rel := range q.fp.Writes {
		if e := m.locks[rel]; e != nil {
			e.writer = false
			if e.readers == 0 {
				delete(m.locks, rel)
			}
		}
	}
}

// tryAdmit scans the queue and admits every query that is conflict-free
// and for which enough ICs are free.
func (m *Machine) tryAdmit() {
	if m.err != nil {
		return
	}
	kept := m.queue[:0]
	for _, q := range m.queue {
		if m.admit(q) {
			continue
		}
		kept = append(kept, q)
	}
	m.queue = append([]*mquery(nil), kept...)
}

func (m *Machine) admit(q *mquery) bool {
	if m.conflicts(q) {
		if !q.delayed {
			q.delayed = true
			m.stats.QueriesDelayedByConflict++
		}
		return false
	}
	nOps := 0
	for _, n := range q.tree.Nodes() {
		if isOperator(n) {
			nOps++
		}
	}
	if nOps > len(m.freeICs) {
		return false
	}

	m.lock(q)
	q.started = m.s.Now()
	m.active = append(m.active, q)
	if m.tracing() {
		m.event(obs.EvAdmit, "MC", q.id, -1, -1, 0,
			"MC: admit query %d (%d instructions, reads=%v writes=%v)",
			q.id, nOps, q.fp.Reads, q.fp.Writes)
	}
	if m.spansOn() {
		q.span = m.beginSpan(obs.SpanQuery, nil, "MC", fmt.Sprintf("query %d", q.id), q.id, -1, -1)
	}

	if nOps == 0 {
		// A pure effect (delete), a bare scan, or append-of-scan: the
		// host resolves it directly against the catalog.
		var scan *query.Node
		if q.effectKind == query.OpAppend {
			scan = q.tree.Root().Inputs[0]
		} else if q.tree.Root().Kind == query.OpScan {
			scan = q.tree.Root()
		}
		if scan != nil {
			rel, err := m.cat.Get(scan.Rel)
			if err != nil {
				m.fail(err)
			}
			q.result = rel
		}
		m.finishQuery(q)
		return true
	}

	// Build instructions in post order and assign an IC to each.
	byNode := map[*query.Node]*minstr{}
	for _, n := range q.tree.Nodes() {
		if !isOperator(n) {
			continue
		}
		mi := &minstr{q: q, id: len(q.instrs), node: n, outTupleLen: n.Schema().TupleLen()}
		mi.outPageSize = m.cfg.HW.PageSize
		if min := relation.PageHeaderLen + mi.outTupleLen; mi.outPageSize < min {
			mi.outPageSize = min
		}
		if err := mi.prep(m); err != nil {
			m.fail(err)
			return true
		}
		c := m.freeICs[len(m.freeICs)-1]
		m.freeICs = m.freeICs[:len(m.freeICs)-1]
		mi.ic = c
		byNode[n] = mi
		q.instrs = append(q.instrs, mi)
		q.remaining++
	}
	// Wire destinations: each instruction's results flow to the IC of
	// the nearest operator ancestor, or to the host at the root.
	streamRoot := q.tree.Root()
	if q.effectKind != 0 && len(streamRoot.Inputs) > 0 {
		streamRoot = streamRoot.Inputs[0]
	}
	for _, mi := range q.instrs {
		parent, input := operatorParent(q.tree, mi.node)
		if parent == nil || mi.node == streamRoot {
			mi.destIC = nil
		} else {
			dest := byNode[parent]
			mi.destIC = dest.ic
			mi.destInstr = dest
			mi.destInput = input
		}
	}
	// Result relation for the stream root.
	rootInstr := byNode[streamRoot]
	rel, err := relation.New(streamRoot.Label(), streamRoot.Schema(), rootInstr.outPageSize)
	if err != nil {
		m.fail(err)
		return true
	}
	q.result = rel

	// The MC distributes the instructions over the inner ring.
	for _, mi := range q.instrs {
		mi := mi
		m.observeMC()
		m.innerSend(m.cfg.HW.InstrHeaderBytes, func() { mi.ic.assign(mi) })
	}
	return true
}

// observeMC charges one MC message-handling cost to the
// machine.mc_busy_us timeline. The cost is an attribution-only proxy
// (the control-message serialization time, per Section 4.4's
// memory-management-cost-per-enabling argument): it feeds the
// saturation report but never alters simulated timing. Charges are
// serialized behind mcFree — the MC is one processor, so a burst of
// simultaneous control messages queues rather than stacking into one
// bucket as >100% utilization.
func (m *Machine) observeMC() {
	if !m.obs.MetricsOn() {
		return
	}
	start := m.s.Now()
	if start < m.mcFree {
		start = m.mcFree
	}
	m.mcFree = start + m.mcCost
	m.obs.Registry().AddBusy("machine.mc_busy_us", start, m.mcCost)
}

func isOperator(n *query.Node) bool {
	return n.Kind == query.OpRestrict || n.Kind == query.OpJoin || n.Kind == query.OpProject
}

// operatorParent finds the nearest operator ancestor of n and which of
// its inputs leads to n.
func operatorParent(t *query.Tree, n *query.Node) (*query.Node, int) {
	var walk func(cur *query.Node) (*query.Node, int, bool)
	walk = func(cur *query.Node) (*query.Node, int, bool) {
		for i, in := range cur.Inputs {
			if in == n {
				return cur, i, true
			}
			if p, j, ok := walk(in); ok {
				return p, j, true
			}
		}
		return nil, 0, false
	}
	p, i, ok := walk(t.Root())
	if !ok || !isOperator(p) {
		return nil, 0
	}
	return p, i
}

// hostDeliver receives a result page of the query's stream root.
func (m *Machine) hostDeliver(q *mquery, pg *relation.Page) {
	if pg.Empty() {
		return
	}
	if err := q.result.AppendPage(pg); err != nil {
		m.fail(err)
	}
}

// instrFinished is called by an IC when its instruction completes; the
// IC is freed and, at the root, the query finishes.
func (m *Machine) instrFinished(mi *minstr) {
	m.observeMC()
	if mi.dedup != nil {
		mi.dedup.Reset()
		m.dedupFree = append(m.dedupFree, mi.dedup)
		mi.dedup = nil
	}
	m.freeICs = append(m.freeICs, mi.ic)
	mi.q.remaining--
	if mi.q.remaining == 0 {
		m.finishQuery(mi.q)
	}
	m.s.After(0, m.tryAdmit)
}

func (m *Machine) finishQuery(q *mquery) {
	// Host-side effects.
	switch q.effectKind {
	case query.OpAppend:
		dst, err := m.cat.Get(q.effectNode.Rel)
		if err == nil {
			_, err = relalg.Append(dst, q.result)
		}
		if err != nil {
			m.fail(err)
		} else {
			q.result = dst
		}
	case query.OpDelete:
		target, err := m.cat.Get(q.effectNode.Rel)
		if err == nil {
			_, err = relalg.Delete(target, q.effectNode.Pred)
		}
		if err != nil {
			m.fail(err)
		} else {
			q.result = target
		}
	}
	m.unlock(q)
	for i, aq := range m.active {
		if aq == q {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	if m.tracing() {
		m.event(obs.EvQueryDone, "MC", q.id, -1, -1, 0, "MC: query %d finished", q.id)
	}
	m.endSpan(q.span)
	m.results = append(m.results, QueryResult{
		QueryID:   q.id,
		Relation:  q.result,
		Submitted: q.submitted,
		Started:   q.started,
		Finished:  m.s.Now(),
	})
	m.s.After(0, m.tryAdmit)
}

// ---- IP allocation (MC arbitrating the processor pool) ----

// requestIPs records an IC's wish for processors; grants flow now and
// as processors are released.
func (m *Machine) requestIPs(c *ic, mi *minstr, want int) {
	m.observeMC()
	m.ipRequests = append(m.ipRequests, &ipRequest{ic: c, instr: mi, want: want})
	m.pumpIPs()
	m.sample("machine.ip_request_queue", float64(len(m.ipRequests)))
}

// pumpIPs arbitrates the processor pool. An instruction whose operands
// are all complete (or stored relations) is "safe": its processors can
// always make progress. An instruction still waiting on a producer is
// "unsafe": its processors may block awaiting pages. The MC never hands
// the last free processor to an unsafe instruction — one processor is
// always left for safe work, which guarantees the producers at the
// bottom of every query tree keep running and the machine cannot
// deadlock in a circular wait between processors and data.
func (m *Machine) pumpIPs() {
	for len(m.freeIPs) > 0 {
		granted := false
		kept := m.ipRequests[:0]
		for _, req := range m.ipRequests {
			if req.want <= 0 || req.ic.cur != req.instr || req.instr == nil {
				continue // stale
			}
			if granted || len(m.freeIPs) == 0 {
				kept = append(kept, req)
				continue
			}
			if !req.ic.isSafe() && len(m.freeIPs) < 2 {
				kept = append(kept, req) // hold the reserve
				continue
			}
			p := m.freeIPs[len(m.freeIPs)-1]
			m.freeIPs = m.freeIPs[:len(m.freeIPs)-1]
			req.want--
			if req.want > 0 {
				kept = append(kept, req)
			}
			granted = true
			c := req.ic
			if m.tracing() {
				m.event(obs.EvGrant, "MC", req.instr.q.id, req.instr.id, -1, 0,
					"MC: grant IP %d to IC %d", p.id, c.id)
			}
			m.observeMC()
			// The grant is a small control message on the inner ring.
			m.innerSend(m.cfg.HW.ControlBytes, func() { c.gainIP(p) })
		}
		m.ipRequests = append([]*ipRequest(nil), kept...)
		if !granted {
			return
		}
	}
}

// releaseIP returns a processor to the pool (a control message to the
// MC on the inner ring) and re-arbitrates. A processor that failed
// while assigned is dropped from the pool instead.
func (m *Machine) releaseIP(p *ip) {
	p.instr = nil
	p.ic = nil
	m.innerSend(m.cfg.HW.ControlBytes, func() {
		m.observeMC()
		if !p.failed {
			m.freeIPs = append(m.freeIPs, p)
		}
		m.pumpIPs()
	})
}

// ScheduleIPFailure disables processor id at virtual time at. The MC
// notices at the next allocation boundary: the processor is withdrawn
// from the free pool (or dropped at its next release) and never granted
// again — the paper's requirement 5 that the design "survive an
// arbitrary number of disabled processors". Call before Run.
//
// A time in the past is clamped to "now" by the simulator's monotonic
// clock, and failing an already-failed processor is a no-op, so
// repeated or late calls are safe. If every processor ends up failed
// while queries are outstanding, Run returns a FaultError rather than
// stalling.
func (m *Machine) ScheduleIPFailure(id int, at time.Duration) error {
	if id < 0 || id >= len(m.ips) {
		return fmt.Errorf("machine: no IP %d", id)
	}
	m.s.At(at, func() { m.failIP(m.ips[id], "scheduled failure") })
	return nil
}

// ---- Ring transport ----

// sendOuter ships bytes over the outer ring, invoking deliver at
// arrival. Serialization occupies the shared loop; propagation adds a
// mean hop latency.
func (m *Machine) sendOuter(bytes int, deliver func()) {
	m.stats.OuterRingPackets++
	m.stats.OuterRingBytes += int64(bytes)
	m.observe("machine.outer_ring_bytes", float64(bytes))
	ser := m.cfg.HW.OuterRing.SerializationTime(bytes)
	prop := m.meanOuterHops()
	finish := m.outer.Serve(ser, func() { m.s.After(prop, deliver) })
	m.observeBusy("machine.outer_ring_busy_us", finish-ser, ser)
}

// broadcastOuter ships one packet whose delivery fans out to several
// recipients simultaneously — the broadcast facility of requirement 4.
func (m *Machine) broadcastOuter(bytes int, deliver []func()) {
	m.stats.OuterRingPackets++
	m.stats.OuterRingBytes += int64(bytes)
	m.observe("machine.outer_ring_bytes", float64(bytes))
	ser := m.cfg.HW.OuterRing.SerializationTime(bytes)
	prop := m.meanOuterHops()
	finish := m.outer.Serve(ser, func() {
		m.s.After(prop, func() {
			for _, fn := range deliver {
				fn()
			}
		})
	})
	m.observeBusy("machine.outer_ring_busy_us", finish-ser, ser)
}

// sendInner ships a control message on the inner ring.
func (m *Machine) sendInner(bytes int, deliver func()) {
	m.stats.InnerRingPackets++
	m.stats.InnerRingBytes += int64(bytes)
	m.observe("machine.inner_ring_bytes", float64(bytes))
	ser := m.cfg.HW.InnerRing.SerializationTime(bytes)
	prop := time.Duration(m.cfg.ICs/2+1) * m.cfg.HW.InnerRing.HopDelay
	finish := m.inner.Serve(ser, func() { m.s.After(prop, deliver) })
	m.observeBusy("machine.inner_ring_busy_us", finish-ser, ser)
}

func (m *Machine) meanOuterHops() time.Duration {
	return time.Duration((m.cfg.ICs+m.cfg.IPs)/2+1) * m.cfg.HW.OuterRing.HopDelay
}
