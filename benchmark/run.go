package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dfdbm"
)

// rounds is how many rounds a run measures. Load pauses between
// rounds for one host-speed reading, so a run has rounds+1 readings.
const rounds = 10

// sample is one verified op's timing.
type sample struct {
	class opClass
	rtt   time.Duration
	ttfp  time.Duration
}

// sessionLog is what one session records; only its own goroutine
// writes it while a round runs.
type sessionLog struct {
	samples   []sample
	spans     []span
	attempted int
	failed    int
	firstErr  error
	nextOp    uint64
}

func (l *sessionLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// source hands ops to one or more sessions. Ops come in whole passes;
// done is asked before every op whether to stop, and told whether the
// op would be the first of a pass.
type source struct {
	mu       sync.Mutex
	nextPass func() []op
	done     func(boundary bool) bool
	// atBoundary, when set, runs at every pass boundary under the lock.
	atBoundary func()
	cur        []op
	pos        int
}

func (s *source) next() (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	boundary := s.pos == len(s.cur)
	if boundary && s.atBoundary != nil {
		s.atBoundary()
	}
	if s.done(boundary) {
		return op{}, false
	}
	if boundary {
		s.cur, s.pos = s.nextPass(), 0
	}
	o := s.cur[s.pos]
	s.pos++
	return o, true
}

// driver runs rounds of one workload against one server's sessions.
type driver struct {
	e     *env
	sess  []*session
	logs  []*sessionLog
	epoch time.Time
	rng   *rand.Rand
	// peakHeap is the largest HeapInuse seen at a pass boundary of a
	// traced round.
	peakHeap uint64
}

func newDriver(e *env, sess []*session, seed int64, epoch time.Time) *driver {
	d := &driver{e: e, sess: sess, epoch: epoch, rng: rand.New(rand.NewSource(seed))}
	for i := range sess {
		// Room for a whole run's samples, so that growing the log never
		// shows up in alloc_kb_per_op.
		d.logs = append(d.logs, &sessionLog{samples: make([]sample, 0, 1<<16), nextOp: uint64(i+1) << 40})
	}
	return d
}

// roundStat is what one round measured from outside the sessions.
type roundStat struct {
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	gcs    uint32
	ops    int // verified ops that count toward throughput
	allOps int // verified ops of every session
	traced bool
}

// limit ends a round: about d after it began, or after a fixed number
// of passes (the warm-up), always at a pass boundary.
type limit struct {
	d      time.Duration
	passes int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round runs one round and returns what it measured. traced rounds
// record spans and sample the heap at pass boundaries.
func (d *driver) round(ctx context.Context, lim limit, traced bool) roundStat {
	// timeUp is asked at every pass boundary. A timed round ends at the
	// boundary nearest its length — the first one, if less than half a
	// pass remains — so rounds average their nominal length however
	// long a pass is, and stays ended once it has.
	var passes int
	var ended bool
	var lastBoundary time.Duration
	var start time.Time // set when the sessions are let go
	timeUp := func() bool {
		if ended {
			return true
		}
		if lim.passes > 0 {
			ended = passes >= lim.passes
			return ended
		}
		now := time.Since(start)
		lastPass := now - lastBoundary
		lastBoundary = now
		ended = passes > 0 && now+lastPass/2 >= lim.d
		return ended
	}
	var writerDone atomic.Bool
	boundary := func() {
		if traced {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			d.peakHeap = max(d.peakHeap, m.HeapInuse)
		}
	}

	var sources []*source
	if d.e.sp.name == "ingest" {
		fixed := writerPass()
		writer := &source{
			nextPass:   func() []op { passes++; return fixed },
			done:       func(b bool) bool { return ctx.Err() != nil || (b && timeUp()) },
			atBoundary: boundary,
		}
		reader := &source{
			nextPass: func() []op { return d.e.sp.deck.pass(d.rng) },
			done:     func(bool) bool { return ctx.Err() != nil || writerDone.Load() },
		}
		sources = []*source{writer, reader}
	} else {
		shared := &source{
			nextPass:   func() []op { passes++; return d.e.sp.deck.pass(d.rng) },
			done:       func(b bool) bool { return ctx.Err() != nil || (b && timeUp()) },
			atBoundary: boundary,
		}
		for range d.sess {
			sources = append(sources, shared)
		}
	}

	before := make([]int, len(d.logs))
	for i, l := range d.logs {
		before[i] = len(l.samples)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start = time.Now()

	var wg sync.WaitGroup
	for i := range d.sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.serve(d.sess[i], d.logs[i], sources[i], traced)
			if i == 0 {
				writerDone.Store(true)
			}
		}(i)
	}
	wg.Wait()

	st := roundStat{wall: time.Since(start), cpu: cpuTime() - cpu0, traced: traced}
	runtime.ReadMemStats(&m1)
	st.alloc = m1.TotalAlloc - m0.TotalAlloc
	st.gcs = m1.NumGC - m0.NumGC
	for i, l := range d.logs {
		for _, s := range l.samples[before[i]:] {
			st.allOps++
			if s.class == classPrimary || s.class == classTrim {
				st.ops++
			}
		}
	}
	// A checkpoint the last write scheduled may still be running; let
	// it finish before the host-speed reading or the next server's turn.
	d.e.quiesce()
	return st
}

// readerAlloc measures what one op of the ingest reader's deck
// allocates, by running whole passes of it with the writer idle. The
// reader's share of a round's allocation moves with its pace relative
// to the writer's; with this figure the share can be taken out, which
// leaves allocation per write as steady as it is on one session.
func (d *driver) readerAlloc(ctx context.Context, passes int) float64 {
	const reader = 1
	n := 0
	src := &source{
		nextPass: func() []op { n++; return d.e.sp.deck.pass(d.rng) },
		done:     func(b bool) bool { return ctx.Err() != nil || (b && n >= passes) },
	}
	log := d.logs[reader]
	before := len(log.samples)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d.serve(d.sess[reader], log, src, false)
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(log.samples)-before))
}

// serve is one session's closed loop for one round.
func (d *driver) serve(s *session, l *sessionLog, src *source, traced bool) {
	for {
		o, ok := src.next()
		if !ok {
			return
		}
		l.attempted++
		r, err := s.query(o.text, traced)
		if err != nil {
			l.fail(fmt.Errorf("%s: %w", o.text, err))
			continue
		}
		if err := d.e.check(o, r); err != nil {
			l.fail(fmt.Errorf("%s: %w", o.text, err))
			continue
		}
		l.samples = append(l.samples, sample{class: o.class, rtt: r.rtt, ttfp: r.ttfp})
		if traced {
			l.nextOp++
			l.spans = appendOpSpans(l.spans, d.epoch, l.nextOp, o, r)
		}
	}
}

// check verifies one answered op against the oracle. Only the ingest
// writer's goroutine reaches the branches that touch e.acked.
func (e *env) check(o op, r *reply) error {
	if err := consistent(r); err != nil {
		return err
	}
	st := r.stats
	switch {
	case o.text == ingestAppend:
		e.acked++
		want := int64(e.acked) * e.perAppend
		if st.Tuples != want || st.ResultBytes != stageBytes(want) {
			return fmt.Errorf("append %d returned %d tuples in %d bytes, want %d in %d",
				e.acked, st.Tuples, st.ResultBytes, want, stageBytes(want))
		}
	case o.text == ingestTrim:
		e.acked = 0
		if st.Tuples != 0 {
			return fmt.Errorf("trim left %d tuples", st.Tuples)
		}
	case o.class == classReadConflict:
		// The reader sees stage_a between two of the writer's ops.
		if k := st.Tuples / e.perRead; st.Tuples%e.perRead != 0 || k > appendsPerPass {
			return fmt.Errorf("read of stage_a returned %d tuples, not a multiple of %d up to %d appends",
				st.Tuples, e.perRead, appendsPerPass)
		}
	default:
		want, ok := e.expect[o.text]
		if !ok {
			return fmt.Errorf("no oracle entry")
		}
		if st.Tuples != want.tuples || st.ResultBytes != want.bytes {
			return fmt.Errorf("returned %d tuples in %d bytes, oracle has %d in %d",
				st.Tuples, st.ResultBytes, want.tuples, want.bytes)
		}
	}
	return nil
}

// quiesce waits until neither server has a job queued or running.
func (e *env) quiesce() {
	for _, srv := range []*dfdbm.QueryServer{e.srv, e.plain} {
		if srv == nil {
			continue
		}
		sc := srv.Scheduler()
		for sc.QueueDepth() > 0 || sc.RunningCount() > 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
}
