// Package loadgen replays declarative load profiles against a dfdbm
// server over the real wire protocol. A profile describes a simulated
// day — phases with arrival patterns, query mixes, and SLOs, plus
// scheduled disturbances — and the generator compresses it by a time
// scale, drives it open-loop (arrivals never wait for completions, so
// latency includes every queueing effect), and emits a per-interval
// timeline of offered vs completed QPS, per-lane latency quantiles,
// shed counts, and scheduler gauges, judged against the profile's SLOs.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/server"
	"dfdbm/internal/wire"
)

// Control exposes in-process hooks on the serving stack. All fields
// are optional: driving a remote server over the wire leaves them nil,
// and the affected events/gauges are skipped with a log note.
type Control struct {
	// Checkpoint runs a catalog checkpoint under total write exclusion —
	// the maintenance-window event.
	Checkpoint func(context.Context) error
	// SetExecDelay injects per-query execution delay — the node
	// slowdown event.
	SetExecDelay func(time.Duration)
	// Registry supplies scheduler gauges (queue depth, runners,
	// utilization) for timeline rows.
	Registry *obs.Registry
}

// RunConfig parameterizes one replay.
type RunConfig struct {
	Profile *Profile
	// TimeScale overrides the profile's when positive.
	TimeScale float64
	// Addr is the server's wire address.
	Addr string
	// Control hooks into an in-process server (optional).
	Control *Control
	// Live, when non-nil, receives every row for the /loadgen endpoint.
	Live *Live
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

// Run replays the profile and returns the timeline report. SLO failure
// is reported in Report.Pass, not as an error; errors mean the run
// itself could not proceed.
func Run(ctx context.Context, cfg RunConfig) (*Report, error) {
	p := cfg.Profile
	// Event goroutines, the interval flusher, and the dispatcher all
	// log; serialize writes so callers can pass any io.Writer.
	if cfg.Log != nil {
		cfg.Log = &syncWriter{w: cfg.Log}
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = p.TimeScale
	}
	rng := rand.New(rand.NewSource(p.Seed))
	plan := buildPlan(p, scale, rng)
	totalWall := time.Duration(float64(p.TotalDuration()) / scale)
	wallInterval := time.Duration(float64(p.Interval) / scale)
	if wallInterval <= 0 {
		return nil, fmt.Errorf("loadgen: interval %v collapses to zero at scale %g", p.Interval, scale)
	}
	logf(cfg.Log, "profile %s: %d arrivals over %v wall (%v simulated, scale %g)",
		p.Name, len(plan), totalWall.Round(time.Millisecond), p.TotalDuration(), scale)

	// Session pool: one wire connection per session, sized to the
	// widest phase; each phase round-robins over its own session count.
	poolSize := 0
	for i := range p.Phases {
		if p.Phases[i].Sessions > poolSize {
			poolSize = p.Phases[i].Sessions
		}
	}
	workers := make([]chan arrival, poolSize)
	clients := make([]*server.Client, poolSize)
	for i := range clients {
		c, err := server.Dial(cfg.Addr, server.ClientConfig{Name: fmt.Sprintf("loadgen-%d", i)})
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("loadgen: session %d: %w", i, err)
		}
		clients[i] = c
		workers[i] = make(chan arrival, 8)
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	col := newCollector()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runSession(ctx, clients[i], workers[i], start, col)
		}(i)
	}

	var reg *obs.Registry
	if cfg.Control != nil {
		reg = cfg.Control.Registry
	}

	// Timeline flusher: one row per interval, judged against the
	// covering phase's SLO immediately so the live endpoint shows
	// verdicts as they land.
	var rows []Row
	rowsDone := make(chan struct{})
	flushRow := func(idx int, wallDur time.Duration) {
		simStart := time.Duration(idx) * p.Interval
		simEnd := simStart + p.Interval
		if tot := p.TotalDuration(); simEnd > tot {
			simEnd = tot
		}
		_, ph, _ := p.PhaseAt(simStart + (simEnd-simStart)/2)
		row := col.flush(idx, simStart, simEnd, wallDur, ph.Name, reg)
		ph.SLO.evaluate(&row)
		rows = append(rows, row)
		cfg.Live.add(row)
		logf(cfg.Log, "interval %d [%s] offered %.1f qps, completed %.1f qps, p99 %.1fms, shed %d, depth %.0f, runners %.0f, slo_ok=%v",
			idx, row.Phase, row.OfferedQPS, row.CompletedQPS, row.Latency.P99, row.Shed, row.QueueDepth, row.Runners, row.SLOOK)
	}
	go func() {
		defer close(rowsDone)
		idx := 0
		for {
			next := start.Add(time.Duration(idx+1) * wallInterval)
			if next.After(start.Add(totalWall)) {
				return // final partial interval flushes after drain
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(next)):
				flushRow(idx, wallInterval)
				idx++
			}
		}
	}()

	events := startEvents(ctx, cfg, p, scale, start)

	// Dispatch the plan open-loop: each arrival goes to its phase's
	// session ring at its scheduled instant; a full session backlog
	// drops the arrival (counted, not blocked on — the whole point of
	// open-loop replay).
	var rr int
	dispatchErr := func() error {
		for i := range plan {
			a := &plan[i]
			if err := sleepUntil(ctx, start.Add(a.wall)); err != nil {
				return err
			}
			col.offer()
			active := p.Phases[a.phase].Sessions
			if active > poolSize {
				active = poolSize
			}
			sent := false
			for try := 0; try < active; try++ {
				w := workers[rr%active]
				rr++
				select {
				case w <- *a:
					sent = true
				default:
					continue
				}
				break
			}
			if !sent {
				col.drop()
			}
		}
		return nil
	}()

	for _, w := range workers {
		close(w)
	}
	wg.Wait()
	events.Wait()
	<-rowsDone

	// Flush whatever the last partial interval holds.
	elapsed := time.Since(start)
	lastIdx := len(rows)
	if rem := elapsed - time.Duration(lastIdx)*wallInterval; rem > 0 || lastIdx == 0 {
		flushRow(lastIdx, maxDur(rem, time.Millisecond))
	}

	phases, pass := summarize(p, rows)
	rep := &Report{
		Profile:   p.Name,
		TimeScale: scale,
		Seed:      p.Seed,
		WallS:     time.Since(start).Seconds(),
		Pass:      pass,
		Phases:    phases,
		Rows:      rows,
	}
	for i := range rows {
		rep.Offered += rows[i].Offered
		rep.Completed += rows[i].Completed
		rep.Shed += rows[i].Shed
		rep.Dropped += rows[i].Dropped
		rep.Errors += rows[i].Errors
	}
	cfg.Live.finish(rep)
	logf(cfg.Log, "run done: offered %d, completed %d, shed %d, dropped %d, errors %d, pass=%v",
		rep.Offered, rep.Completed, rep.Shed, rep.Dropped, rep.Errors, rep.Pass)
	if dispatchErr != nil && !errors.Is(dispatchErr, context.Canceled) {
		return rep, dispatchErr
	}
	return rep, ctx.Err()
}

// runSession executes one session's arrivals in order. Latency is
// measured from the scheduled arrival instant, so time spent waiting
// behind the session's earlier queries counts against the server.
func runSession(ctx context.Context, c *server.Client, in <-chan arrival, start time.Time, col *collector) {
	for a := range in {
		scheduled := start.Add(a.wall)
		_, err := c.QueryPriority(ctx, a.text, a.lane)
		lat := time.Since(scheduled)
		outcome := "ok"
		if err != nil {
			var re *server.RemoteError
			if errors.As(err, &re) && re.Code == wire.CodeOverloaded {
				outcome = "shed"
			} else {
				outcome = "error"
			}
		}
		col.complete(laneName(a.lane), lat, outcome)
	}
}

// startEvents schedules the profile's disturbances on the compressed
// clock and returns a WaitGroup that settles when all have fired.
func startEvents(ctx context.Context, cfg RunConfig, p *Profile, scale float64, start time.Time) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := range p.Events {
		ev := p.Events[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sleepUntil(ctx, start.Add(time.Duration(float64(ev.At)/scale))); err != nil {
				return
			}
			fireEvent(ctx, cfg, ev, scale)
		}()
	}
	return &wg
}

func fireEvent(ctx context.Context, cfg RunConfig, ev EventSpec, scale float64) {
	ctl := cfg.Control
	switch ev.Kind {
	case "maintenance":
		if ctl == nil || ctl.Checkpoint == nil {
			logf(cfg.Log, "event maintenance at %v: skipped (no in-process control)", ev.At)
			return
		}
		logf(cfg.Log, "event maintenance at %v: checkpoint (total write exclusion)", ev.At)
		if err := ctl.Checkpoint(ctx); err != nil {
			logf(cfg.Log, "event maintenance: checkpoint failed: %v", err)
		}
	case "slowdown":
		if ctl == nil || ctl.SetExecDelay == nil {
			logf(cfg.Log, "event slowdown at %v: skipped (no in-process control)", ev.At)
			return
		}
		wallDur := time.Duration(float64(ev.Duration) / scale)
		logf(cfg.Log, "event slowdown at %v: +%v per execution for %v wall", ev.At, ev.Delay, wallDur.Round(time.Millisecond))
		ctl.SetExecDelay(ev.Delay)
		if sleepCtx(ctx, wallDur) == nil {
			ctl.SetExecDelay(0)
			logf(cfg.Log, "event slowdown: cleared")
		} else {
			ctl.SetExecDelay(0)
		}
	case "bulk_append":
		c, err := server.Dial(cfg.Addr, server.ClientConfig{Name: "loadgen-bulk"})
		if err != nil {
			logf(cfg.Log, "event bulk_append at %v: dial: %v", ev.At, err)
			return
		}
		defer c.Close()
		logf(cfg.Log, "event bulk_append at %v: %d appends into %s", ev.At, ev.Count, ev.Relation)
		for i := 0; i < ev.Count; i++ {
			src := fmt.Sprintf("r%d", 5+i%5)
			q := fmt.Sprintf("append(%s, restrict(%s, val < 400))", ev.Relation, src)
			if _, err := c.QueryPriority(ctx, q, 2); err != nil {
				logf(cfg.Log, "event bulk_append: %v", err)
				if ctx.Err() != nil {
					return
				}
			}
		}
	}
}

func sleepUntil(ctx context.Context, t time.Time) error {
	return sleepCtx(ctx, time.Until(t))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, "loadgen: "+format+"\n", args...)
	}
}

type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
