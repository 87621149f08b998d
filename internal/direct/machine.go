package direct

import (
	"fmt"
	"time"

	"dfdbm/internal/core"
	"dfdbm/internal/fault"
	"dfdbm/internal/hw"
	"dfdbm/internal/obs"
	"dfdbm/internal/query"
	"dfdbm/internal/sim"
	"dfdbm/internal/stats"
)

// Config parameterizes one simulated DIRECT configuration.
type Config struct {
	// Processors is the number of instruction (query) processors.
	Processors int
	// CellsPerProcessor bounds the instructions staged per processor —
	// the paper's "two memory cells for each processor". Default 2.
	CellsPerProcessor int
	// CacheFrames is the capacity of the shared CCD disk cache in
	// pages. Default 64 (1 MB of 16 KB frames).
	CacheFrames int
	// Strategy is the scheduling granularity: core.RelationLevel or
	// core.PageLevel. (Tuple level is analyzed in closed form and
	// measured on the functional engine; simulating per-tuple events
	// adds nothing to the timing comparison.)
	Strategy core.Granularity
	// Concurrent runs all benchmark queries simultaneously; the default
	// (false) runs them back to back, each given the whole machine, as
	// in the processor-allocation experiments the paper's Figure 3.1
	// derives from.
	Concurrent bool
	// HW supplies the device timing; zero value means hw.Default1979.
	HW hw.Config
	// Obs, when non-nil, receives one structured obs.Event per
	// dispatch, page emission, cache/disk transfer, and query
	// completion — stamped with the virtual time — and, when it carries
	// a registry, the direct.* bandwidth timelines (whose integrals
	// equal the Report byte totals exactly) plus the Report re-expressed
	// as counters and gauges.
	Obs *obs.Observer
	// Fault, when non-nil, injects transient cache-frame read faults
	// per its CacheReadFault probability: a faulted read is detected
	// (ECC style), costs one extra processor-cache fetch to retry, and
	// is counted in Report.CacheReadFaults. Build one fresh Plan per
	// Run.
	Fault *fault.Plan
}

func (c Config) withDefaults() (Config, error) {
	if c.Processors < 1 {
		return c, fmt.Errorf("direct: need at least one processor")
	}
	if c.CellsPerProcessor <= 0 {
		c.CellsPerProcessor = 2
	}
	if c.CacheFrames <= 0 {
		c.CacheFrames = 256 // 4 MB of 16 KB frames, as in the DIRECT prototype plans
	}
	if c.CacheFrames < 8 {
		c.CacheFrames = 8
	}
	if c.Strategy == 0 {
		c.Strategy = core.PageLevel
	}
	if c.Strategy != core.PageLevel && c.Strategy != core.RelationLevel {
		return c, fmt.Errorf("direct: unsupported strategy %v", c.Strategy)
	}
	if c.HW.PageSize == 0 {
		c.HW = hw.Default1979()
	}
	return c, nil
}

// Report summarizes one simulated benchmark execution.
type Report struct {
	// Elapsed is the virtual time at which the last query completed —
	// the paper's "execution time of the benchmark".
	Elapsed time.Duration
	// Tasks is the number of instruction packets executed.
	Tasks int64
	// ProcCacheBytes is the traffic between processors and the data
	// cache (operand fetches plus result stores): the level the outer
	// ring must carry in the Section 4 machine.
	ProcCacheBytes int64
	// CacheDiskBytes is the traffic between the cache and mass storage.
	CacheDiskBytes int64
	// ControlBytes is control-message traffic (instruction headers and
	// completion signals): the inner-ring level.
	ControlBytes int64

	DiskReads, DiskWrites  int64
	CacheHits, CacheMisses int64
	// CacheReadFaults counts transient cache-frame read faults injected
	// by Config.Fault; each was detected and retried.
	CacheReadFaults int64
	// PagesRecycled counts dead page descriptors reclaimed at eviction
	// and reissued by newPage (host-side allocation behaviour only;
	// recycled descriptors get fresh ids, so traces are unaffected).
	PagesRecycled int64

	ProcBusy, DiskBusy               time.Duration
	ProcUtilization, DiskUtilization float64
}

// ProcCacheMbps returns the average processor⇄cache bandwidth demand.
func (r Report) ProcCacheMbps() float64 { return stats.Mbps(r.ProcCacheBytes, r.Elapsed) }

// CacheDiskMbps returns the average cache⇄disk bandwidth demand.
func (r Report) CacheDiskMbps() float64 { return stats.Mbps(r.CacheDiskBytes, r.Elapsed) }

// ControlMbps returns the average control-traffic bandwidth demand.
func (r Report) ControlMbps() float64 { return stats.Mbps(r.ControlBytes, r.Elapsed) }

// Run simulates the concurrent execution of the profiled queries on one
// DIRECT configuration. All queries arrive at time zero, as in the
// paper's benchmark, and share the processor pool, cache, and disks.
func Run(cfg Config, profiles []QueryProfile) (Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}
	m := newMachine(cfg)
	for i, p := range profiles {
		if p.PageSize != 0 && p.PageSize != cfg.HW.PageSize {
			return Report{}, fmt.Errorf(
				"direct: profile %d was computed for %d-byte pages but the machine uses %d-byte pages",
				i, p.PageSize, cfg.HW.PageSize)
		}
		m.addQuery(p)
	}
	m.start()
	m.sim.Run()
	cfg.Obs.Spans().CloseAt(m.finishedAt)
	if m.queriesLeft != 0 {
		return Report{}, fmt.Errorf("direct: simulation stalled with %d queries unfinished", m.queriesLeft)
	}
	r := m.report
	r.Elapsed = m.finishedAt
	r.ProcBusy = m.procs.BusyTime()
	r.DiskBusy = m.disk.BusyTime()
	r.ProcUtilization = m.procs.Utilization(m.finishedAt)
	r.DiskUtilization = m.disk.Utilization(m.finishedAt)
	exportMetrics(cfg.Obs, r)
	if serr := cfg.Obs.Err(); serr != nil {
		return Report{}, fmt.Errorf("direct: trace sink: %w", serr)
	}
	return r, nil
}

// exportMetrics re-expresses the Report through the metrics registry,
// alongside the direct.* timelines recorded while running.
func exportMetrics(o *obs.Observer, rep Report) {
	if !o.MetricsOn() {
		return
	}
	r := o.Registry()
	r.Inc("direct.tasks", rep.Tasks)
	r.Inc("direct.proc_cache_bytes_total", rep.ProcCacheBytes)
	r.Inc("direct.cache_disk_bytes_total", rep.CacheDiskBytes)
	r.Inc("direct.control_bytes_total", rep.ControlBytes)
	r.Inc("direct.disk_reads", rep.DiskReads)
	r.Inc("direct.disk_writes", rep.DiskWrites)
	r.Inc("direct.cache_hits", rep.CacheHits)
	r.Inc("direct.cache_misses", rep.CacheMisses)
	r.Inc("direct.cache_read_faults", rep.CacheReadFaults)
	r.Inc("direct.pages_recycled", rep.PagesRecycled)
	r.SetGauge("direct.elapsed_seconds", rep.Elapsed.Seconds())
	r.SetGauge("direct.proc_utilization", rep.ProcUtilization)
	r.SetGauge("direct.disk_utilization", rep.DiskUtilization)
	r.SetGauge("direct.proc_cache_mbps", rep.ProcCacheMbps())
	r.SetGauge("direct.cache_disk_mbps", rep.CacheDiskMbps())
	r.SetGauge("direct.control_mbps", rep.ControlMbps())
	if total := rep.CacheHits + rep.CacheMisses; total > 0 {
		r.SetGauge("direct.cache_hit_rate", float64(rep.CacheHits)/float64(total))
	}
}

// machine is the simulated hardware plus scheduler state.
type machine struct {
	cfg   Config
	obs   *obs.Observer
	sim   *sim.Sim
	disk  *sim.Station
	procs *sim.Station
	cells *sim.Resource
	cache *cacheModel

	queries     []*queryInstance
	leafPages   map[string][]*page
	pageFree    []*page
	nextPageID  int
	queriesLeft int
	finishedAt  time.Duration
	report      Report
}

func newMachine(cfg Config) *machine {
	s := sim.New()
	m := &machine{
		cfg:       cfg,
		obs:       cfg.Obs,
		sim:       s,
		disk:      sim.NewStation(s, cfg.HW.NumDisks),
		procs:     sim.NewStation(s, cfg.Processors),
		cells:     sim.NewResource(s, cfg.Processors*cfg.CellsPerProcessor),
		leafPages: map[string][]*page{},
	}
	m.cache = newCacheModel(m, cfg.CacheFrames)
	return m
}

// event emits one structured event stamped with the virtual time. qid,
// instr, and page are -1 when not applicable; bytes is the moved
// payload size or 0.
func (m *machine) event(kind obs.EventKind, comp string, qid, instr, pageNo, bytes int, format string, args ...interface{}) {
	o := m.obs
	if !o.Enabled() {
		return
	}
	o.Emit(obs.Event{
		TS:    m.sim.Now(),
		Kind:  kind,
		Comp:  comp,
		Query: qid,
		Instr: instr,
		Page:  pageNo,
		Bytes: bytes,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// observe accumulates v into the named virtual-time timeline. Every
// Report byte counter is mirrored here increment for increment, so each
// timeline's integral equals the corresponding total exactly.
func (m *machine) observe(name string, v float64) {
	if o := m.obs; o.MetricsOn() {
		o.Registry().Add(name, m.sim.Now(), v)
	}
}

// observeBusy charges a device busy interval [start, start+d) into the
// named timeline, spread across the buckets it overlaps, so the
// saturation report sees the actual service interval rather than a
// point charge at the enqueue time.
func (m *machine) observeBusy(name string, start, d time.Duration) {
	if o := m.obs; o.MetricsOn() {
		o.Registry().AddBusy(name, start, d)
	}
}

// tracing and spansOn guard event and span call sites, so the disabled
// path costs one nil check and zero allocations per event.
func (m *machine) tracing() bool { return m.obs.Enabled() }
func (m *machine) spansOn() bool { return m.obs.SpansOn() }

func (m *machine) beginSpan(kind obs.SpanKind, parent *obs.Span, comp, name string, qid, instr, pageNo int) *obs.Span {
	return m.obs.Spans().Begin(kind, parent, m.sim.Now(), comp, name, qid, instr, pageNo)
}

func (m *machine) endSpan(s *obs.Span) {
	if s != nil {
		m.obs.Spans().End(s, m.sim.Now())
	}
}

func (m *machine) recordSpan(kind obs.SpanKind, parent *obs.Span, start, end time.Duration, comp, name string, qid, instr, pageNo int) {
	m.obs.Spans().Record(kind, parent, start, end, comp, name, qid, instr, pageNo)
}

// Resources names the simulated devices for the saturation report,
// mapping each to the busy timeline it accumulates during a run.
func Resources(cfg Config) []obs.ResourceSpec {
	cfg, _ = cfg.withDefaults()
	return []obs.ResourceSpec{
		{Name: "processor pool", Timeline: "direct.proc_busy_us", Servers: cfg.Processors},
		{Name: "disk", Timeline: "direct.disk_busy_us", Servers: cfg.HW.NumDisks},
		{Name: "cache ports", Timeline: "direct.cache_port_busy_us", Servers: cfg.Processors},
		{Name: "control bus", Timeline: "direct.control_busy_us", Servers: 1},
	}
}

// page is one page token in the simulation.
type page struct {
	id       int
	tuples   int
	leaf     bool
	onDisk   bool // has a copy on mass storage
	resident bool // has a copy in the disk cache
	dead     bool // no future task will read it
	fetching bool
	waiters  []func()
	lruPrev  *page
	lruNext  *page
	// staged marks an intermediate written to mass storage as a whole
	// relation (relation-level granularity); staged pages read back
	// sequentially.
	staged bool
	// pendingReads counts dispatched-but-unexecuted tasks referencing
	// the page; consumer is the node that reads it (intermediates only).
	pendingReads int
	consumer     *nodeState
}

// maybeDie marks an intermediate page dead once no dispatched task
// still references it and its consumer can dispatch no further tasks.
// Dead pages are evicted without a disk write — the cache-traffic
// saving that page-level pipelining exists to exploit.
func (pg *page) maybeDie() {
	if pg.leaf || pg.dead || pg.consumer == nil {
		return
	}
	c := pg.consumer
	if pg.pendingReads == 0 && c.allInputsDone() && c.generated {
		pg.dead = true
	}
}

func (m *machine) newPage(tuples int, leaf bool) *page {
	m.nextPageID++
	if n := len(m.pageFree); n > 0 {
		pg := m.pageFree[n-1]
		m.pageFree[n-1] = nil
		m.pageFree = m.pageFree[:n-1]
		m.report.PagesRecycled++
		// Fully reset, with a fresh id: recycling must be invisible to
		// traces and to any id-based accounting.
		*pg = page{id: m.nextPageID, tuples: tuples, leaf: leaf, onDisk: leaf}
		return pg
	}
	return &page{id: m.nextPageID, tuples: tuples, leaf: leaf, onDisk: leaf}
}

// leafPagesFor returns (building once) the shared page list of a source
// relation, so that concurrent queries scanning the same relation share
// cache residency, as they would in the real machine.
func (m *machine) leafPagesFor(ref InputRef) []*page {
	if pgs, ok := m.leafPages[ref.Rel]; ok {
		return pgs
	}
	pgs := make([]*page, ref.Pages)
	for k := range pgs {
		t := ref.Tuples*(k+1)/ref.Pages - ref.Tuples*k/ref.Pages
		pgs[k] = m.newPage(t, true)
	}
	m.leafPages[ref.Rel] = pgs
	return pgs
}

// queryInstance is one executing query.
type queryInstance struct {
	m     *machine
	index int
	nodes []*nodeState
	span  *obs.Span
}

// nodeState is the controller state of one instruction.
type nodeState struct {
	m           *machine
	q           *queryInstance
	prof        NodeProfile
	parent      *nodeState
	parentInput int

	avail      [2][]*page
	inDone     [2]bool
	doneCount  int
	dispatched int
	completed  int
	generated  bool // relation level: tasks have been generated

	outCap     int
	outCredit  float64
	outEmitted int
	finished   bool

	span *obs.Span
}

func (m *machine) addQuery(p QueryProfile) {
	q := &queryInstance{m: m, index: len(m.queries)}
	q.nodes = make([]*nodeState, len(p.Nodes))
	for i, np := range p.Nodes {
		cap := capOf(np.OutBytesPerTuple, m.cfg.HW.PageSize)
		q.nodes[i] = &nodeState{m: m, q: q, prof: np, outCap: cap}
	}
	// Wire parents: node j is the parent of node i if one of j's inputs
	// references i.
	for _, n := range q.nodes {
		for i := 0; i < n.prof.NumInputs; i++ {
			ref := n.prof.Inputs[i]
			if ref.Node >= 0 {
				child := q.nodes[ref.Node]
				child.parent = n
				child.parentInput = i
			}
		}
	}
	m.queries = append(m.queries, q)
	m.queriesLeft++
}

// start begins execution: concurrent mode launches every query at time
// zero; sequential mode launches the next query when its predecessor's
// root completes.
func (m *machine) start() {
	if m.cfg.Concurrent {
		for i := range m.queries {
			m.startQuery(i)
		}
		return
	}
	if len(m.queries) > 0 {
		m.startQuery(0)
	}
}

// startQuery injects a query's initial events: every leaf operand's
// pages arrive and complete immediately (source relations exist on mass
// storage).
func (m *machine) startQuery(idx int) {
	q := m.queries[idx]
	if m.tracing() {
		m.event(obs.EvAdmit, "MC", idx, -1, -1, 0,
			"MC: start query %d (%d instructions)", idx, len(q.nodes))
	}
	if m.spansOn() {
		q.span = m.beginSpan(obs.SpanQuery, nil, "MC",
			fmt.Sprintf("query %d", idx), idx, -1, -1)
		for _, n := range q.nodes {
			n.span = m.beginSpan(obs.SpanInstr, q.span,
				fmt.Sprintf("node%d", n.prof.ID),
				fmt.Sprintf("%s node%d", n.prof.Kind, n.prof.ID),
				idx, n.prof.ID, -1)
		}
	}
	for _, n := range q.nodes {
		n := n
		for i := 0; i < n.prof.NumInputs; i++ {
			i := i
			ref := n.prof.Inputs[i]
			if ref.Node >= 0 {
				continue
			}
			pgs := m.leafPagesFor(ref)
			m.sim.After(0, func() {
				for _, pg := range pgs {
					n.onArrive(i, pg)
				}
				n.onInputDone(i)
			})
		}
	}
}

func (n *nodeState) allInputsDone() bool { return n.doneCount == n.prof.NumInputs }

func (n *nodeState) onArrive(input int, pg *page) {
	n.avail[input] = append(n.avail[input], pg)
	if n.m.cfg.Strategy == core.RelationLevel {
		return // buffer until the operand relations are complete
	}
	switch n.prof.Kind {
	case query.OpJoin:
		other := 1 - input
		for _, q := range n.avail[other] {
			if input == 0 {
				n.dispatch(pg, q)
			} else {
				n.dispatch(q, pg)
			}
		}
	default:
		n.dispatch(pg)
	}
}

func (n *nodeState) onInputDone(input int) {
	if n.inDone[input] {
		return
	}
	n.inDone[input] = true
	n.doneCount++
	if !n.allInputsDone() {
		return
	}
	if n.m.cfg.Strategy == core.RelationLevel {
		// Relation-level firing rule: the instruction is enabled now.
		switch n.prof.Kind {
		case query.OpJoin:
			for _, o := range n.avail[0] {
				for _, i := range n.avail[1] {
					n.dispatch(o, i)
				}
			}
		default:
			for _, pg := range n.avail[0] {
				n.dispatch(pg)
			}
		}
	}
	n.generated = true
	// Pages whose every dispatched task already executed can now be
	// declared dead (no further pairings will reference them).
	for i := 0; i < n.prof.NumInputs; i++ {
		for _, pg := range n.avail[i] {
			pg.maybeDie()
		}
	}
	n.maybeFinish()
}

// dispatch queues one instruction packet: acquire a memory cell, stage
// the operand pages in the cache, execute on a processor, emit results.
func (n *nodeState) dispatch(ops ...*page) {
	n.dispatched++
	m := n.m
	m.report.Tasks++
	ctl := m.cfg.HW.InstrHeaderBytes + m.cfg.HW.ControlBytes
	m.report.ControlBytes += int64(ctl)
	m.observe("direct.control_bytes", float64(ctl))
	m.observeBusy("direct.control_busy_us", m.sim.Now(),
		m.cfg.HW.InnerRing.SerializationTime(ctl))
	if m.tracing() {
		m.event(obs.EvInstr, fmt.Sprintf("node%d", n.prof.ID), n.q.index, n.prof.ID, -1, ctl,
			"node%d: dispatch %s packet of query %d (%d operands)",
			n.prof.ID, n.prof.Kind, n.q.index, len(ops))
	}
	if s := n.span; s != nil {
		s.Firings.Add(1)
		s.Bytes.Add(int64(ctl))
	}
	ops = append([]*page(nil), ops...)
	for _, op := range ops {
		op.pendingReads++
	}
	m.cells.Acquire(func() { n.stage(ops) })
}

func (n *nodeState) stage(ops []*page) {
	m := n.m
	pending := len(ops)
	ready := func() {
		pending--
		if pending == 0 {
			n.execute(ops)
		}
	}
	for _, op := range ops {
		if s := n.span; s != nil {
			if op.resident {
				s.CacheHits.Add(1)
			} else {
				s.CacheMiss.Add(1)
			}
		}
		m.cache.ensureResident(op, ready)
	}
}

// execute models the processor's work for one instruction packet:
// fetching the operands from the cache, the relational operation, and
// storing the result pages back to the cache.
func (n *nodeState) execute(ops []*page) {
	m := n.m
	proc := m.cfg.HW.Proc
	pageBytes := m.cfg.HW.PageSize

	fetch := proc.FetchTime(len(ops) * pageBytes)
	m.report.ProcCacheBytes += int64(len(ops) * pageBytes)
	m.observe("direct.proc_cache_bytes", float64(len(ops)*pageBytes))

	var compute time.Duration
	var share float64
	switch n.prof.Kind {
	case query.OpJoin:
		compute = proc.JoinTime(ops[0].tuples, ops[1].tuples)
		inPairs := float64(n.prof.Inputs[0].Tuples) * float64(n.prof.Inputs[1].Tuples)
		if inPairs > 0 {
			share = float64(n.prof.OutTuples) * float64(ops[0].tuples) * float64(ops[1].tuples) / inPairs
		}
	case query.OpProject:
		compute = proc.ProjectTime(ops[0].tuples)
		if n.prof.Inputs[0].Tuples > 0 {
			share = float64(n.prof.OutTuples) * float64(ops[0].tuples) / float64(n.prof.Inputs[0].Tuples)
		}
	default: // restrict, and the effect operators, are scan-shaped
		compute = proc.RestrictTime(ops[0].tuples)
		if n.prof.Inputs[0].Tuples > 0 {
			share = float64(n.prof.OutTuples) * float64(ops[0].tuples) / float64(n.prof.Inputs[0].Tuples)
		}
	}
	store := proc.FetchTime(int(share * float64(n.prof.OutBytesPerTuple)))

	service := fetch + compute + store
	finish := m.procs.Serve(service, func() {
		m.cells.Release()
		n.completed++
		m.report.ControlBytes += int64(m.cfg.HW.ControlBytes)
		m.observe("direct.control_bytes", float64(m.cfg.HW.ControlBytes))
		m.observeBusy("direct.control_busy_us", m.sim.Now(),
			m.cfg.HW.InnerRing.SerializationTime(m.cfg.HW.ControlBytes))
		for _, op := range ops {
			op.pendingReads--
			op.maybeDie()
		}
		n.outCredit += share
		for n.outCredit >= float64(n.outCap) && n.outEmitted+n.outCap <= n.prof.OutTuples {
			n.emit(n.outCap)
			n.outCredit -= float64(n.outCap)
		}
		n.maybeFinish()
	})
	m.observeBusy("direct.proc_busy_us", finish-service, service)
	m.observeBusy("direct.cache_port_busy_us", finish-service, fetch+store)
	if m.spansOn() {
		m.recordSpan(obs.SpanExec, n.span, finish-service, finish,
			"proc", "exec", n.q.index, n.prof.ID, -1)
		if s := n.span; s != nil {
			s.PagesIn.Add(int64(len(ops)))
		}
	}
}

// emit produces one result page of the given tuple count, stores it,
// and delivers it to the consumer.
//
// The storage path is the crux of the Section 3 comparison. Under
// page-level granularity the page goes to the disk cache and is
// consumed from there — pages of intermediate relations are pipelined
// up the tree. Under relation-level granularity the consuming
// instruction is not yet enabled, so the intermediate relation is
// staged through mass storage: written out at production and read back
// when the consumer fires, exactly the "movement of data between a
// shared data cache and secondary memory" the paper charges against
// the coarser granularity.
func (n *nodeState) emit(tuples int) {
	m := n.m
	pg := m.newPage(tuples, false)
	pg.consumer = n.parent
	n.outEmitted += tuples
	m.report.ProcCacheBytes += int64(m.cfg.HW.PageSize)
	m.observe("direct.proc_cache_bytes", float64(m.cfg.HW.PageSize))
	if m.tracing() {
		m.event(obs.EvResult, fmt.Sprintf("node%d", n.prof.ID), n.q.index, n.prof.ID, pg.id, m.cfg.HW.PageSize,
			"node%d: emit result page %d (%d tuples)", n.prof.ID, pg.id, tuples)
	}
	if s := n.span; s != nil {
		s.PagesOut.Add(1)
		s.TuplesOut.Add(int64(tuples))
	}
	if n.parent == nil {
		// Root output: returned to the host; the page is not needed
		// again.
		pg.dead = true
		m.cache.insert(pg)
		return
	}
	if m.cfg.Strategy == core.RelationLevel {
		pg.onDisk = true
		pg.staged = true
		m.report.DiskWrites++
		m.report.CacheDiskBytes += int64(m.cfg.HW.PageSize)
		m.observe("direct.cache_disk_bytes", float64(m.cfg.HW.PageSize))
		if m.tracing() {
			m.event(obs.EvDiskWrite, "disk", n.q.index, n.prof.ID, pg.id, m.cfg.HW.PageSize,
				"disk: stage intermediate page %d", pg.id)
		}
		service := m.cfg.HW.Disk.SequentialTime(m.cfg.HW.PageSize)
		finish := m.disk.Serve(service, nil)
		m.observeBusy("direct.disk_busy_us", finish-service, service)
		if m.spansOn() {
			m.recordSpan(obs.SpanXfer, n.span, finish-service, finish,
				"disk", "stage write", n.q.index, n.prof.ID, pg.id)
		}
	} else {
		m.cache.insert(pg)
	}
	parent, input := n.parent, n.parentInput
	m.sim.After(0, func() { parent.onArrive(input, pg) })
}

// maybeFinish completes the node once its inputs are complete and every
// dispatched instruction packet has executed.
func (n *nodeState) maybeFinish() {
	if n.finished || !n.allInputsDone() || !n.generated || n.completed != n.dispatched {
		return
	}
	n.finished = true
	// Flush: emit whatever the rounding of per-task shares left over,
	// so the page counts match the profile exactly.
	for n.outEmitted < n.prof.OutTuples {
		t := n.prof.OutTuples - n.outEmitted
		if t > n.outCap {
			t = n.outCap
		}
		n.emit(t)
	}
	// The node's operand pages will never be read again.
	for i := 0; i < n.prof.NumInputs; i++ {
		if n.prof.Inputs[i].Node >= 0 {
			for _, pg := range n.avail[i] {
				pg.dead = true
			}
		}
	}
	m := n.m
	m.endSpan(n.span)
	if n.parent != nil {
		parent, input := n.parent, n.parentInput
		m.sim.After(0, func() { parent.onInputDone(input) })
		return
	}
	// Root finished: the query is done.
	if m.tracing() {
		m.event(obs.EvQueryDone, "MC", n.q.index, -1, -1, 0,
			"MC: query %d finished", n.q.index)
	}
	m.endSpan(n.q.span)
	m.queriesLeft--
	if m.queriesLeft == 0 {
		m.finishedAt = m.sim.Now()
		return
	}
	if !m.cfg.Concurrent {
		next := n.q.index + 1
		if next < len(m.queries) {
			m.sim.After(0, func() { m.startQuery(next) })
		}
	}
}
