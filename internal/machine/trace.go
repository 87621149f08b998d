package machine

import (
	"fmt"
	"time"

	"dfdbm/internal/obs"
)

// Tracing and metrics: when Config.Obs carries a sink, the machine
// emits one structured event per protocol step, stamped with the
// virtual time. Through the text sink the trace reads as it always has,
// making the packet protocol of Figures 4.3–4.5 observable:
//
//	[  12.345ms] MC: admit query 0 (4 instructions)
//	[  13.001ms] MC: grant IP 3 to IC 2
//	[  15.770ms] IC2 -> IP3: restrict page 0 of t1 (flush=false)
//	[  48.770ms] IP3 -> IC2: done page 0
//	[  50.102ms] IC4: broadcast inner page 1 (last=false)
//	[  61.440ms] IP5: ignored broadcast of inner page 2 (buffer full)
//	[  99.018ms] IC4: instruction join complete
//
// The JSONL and Chrome sinks carry the same events with their full
// structured context (component, query, instruction, page, bytes).
// Each text line is built in one buffer and written with a single
// Write, so writers shared between machines cannot interleave within a
// line; the first sink error stops the stream and is reported by Run.
//
// When Config.Obs carries a metrics registry, the ring/processor/
// storage meters additionally record virtual-time timelines (see the
// machine.* metric names in Run).
//
// Tracing and metrics cost ~nothing when disabled: one nil check per
// event or sample.

// tracing reports whether event emission is on. Call sites guard with
// it before building an event's arguments, so the disabled path costs
// one nil check and zero allocations per event (the zero-overhead
// guarantee, enforced by TestDisabledObservabilityAllocs).
func (m *Machine) tracing() bool { return m.obs.Enabled() }

// event emits one structured protocol event when tracing is enabled.
// qid, instr, and page are -1 when not applicable; bytes is the moved
// payload size or 0.
func (m *Machine) event(kind obs.EventKind, comp string, qid, instr, page, bytes int, format string, args ...interface{}) {
	o := m.obs
	if !o.Enabled() {
		return
	}
	o.Emit(obs.Event{
		TS:    m.s.Now(),
		Kind:  kind,
		Comp:  comp,
		Query: qid,
		Instr: instr,
		Page:  page,
		Bytes: bytes,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// observe accumulates v into the named virtual-time timeline when
// metrics are enabled.
func (m *Machine) observe(name string, v float64) {
	if o := m.obs; o.MetricsOn() {
		o.Registry().Add(name, m.s.Now(), v)
	}
}

// observeBusy charges a device busy interval [start, start+d) into the
// named timeline, spread across the buckets it overlaps, so the
// saturation report sees the actual service interval rather than a
// point charge at the enqueue time.
func (m *Machine) observeBusy(name string, start, d time.Duration) {
	if o := m.obs; o.MetricsOn() {
		o.Registry().AddBusy(name, start, d)
	}
}

// sample appends a (now, v) point to the named series when metrics are
// enabled.
func (m *Machine) sample(name string, v float64) {
	if o := m.obs; o.MetricsOn() {
		o.Registry().Sample(name, m.s.Now(), v)
	}
}

// ---- Causal spans ----
//
// When Config.Obs has spans enabled (Observer.EnableSpans), the
// machine additionally records the causal span tree of the run: a
// query span per admitted query, an instruction span per query-tree
// node, a packet span per dispatched instruction packet, an exec span
// per processor compute burst, plus broadcast rounds, cache/disk
// transfers, and recovery episodes. obs.BuildProfile folds the tree
// into the per-node EXPLAIN ANALYZE report. Spans are strictly opt-in:
// without a tracker the event stream and all timings are unchanged.

// spansOn reports whether span recording is enabled; like tracing, the
// disabled path is a nil check.
func (m *Machine) spansOn() bool { return m.obs.SpansOn() }

// beginSpan opens a span at the current virtual time.
func (m *Machine) beginSpan(kind obs.SpanKind, parent *obs.Span, comp, name string, qid, instr, page int) *obs.Span {
	return m.obs.Spans().Begin(kind, parent, m.s.Now(), comp, name, qid, instr, page)
}

// endSpan closes a span at the current virtual time (nil-safe).
func (m *Machine) endSpan(s *obs.Span) {
	if s != nil {
		m.obs.Spans().End(s, m.s.Now())
	}
}

// recordSpan records a span whose extent is already known (a compute
// burst or transfer scheduled from start to end).
func (m *Machine) recordSpan(kind obs.SpanKind, parent *obs.Span, start, end time.Duration, comp, name string, qid, instr, page int) {
	m.obs.Spans().Record(kind, parent, start, end, comp, name, qid, instr, page)
}

// noteResultOut credits one egress result page to the instruction's
// span counters.
func (m *Machine) noteResultOut(mi *minstr, tuples int) {
	if s := mi.span; s != nil {
		s.PagesOut.Add(1)
		s.TuplesOut.Add(int64(tuples))
	}
}
