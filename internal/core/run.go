package core

import (
	"sync"

	"dfdbm/internal/relation"
)

// pageRun is a run buffer: up to relation.MaxRun consecutive pages of one
// input — a scan feeder's event, an instruction packet's operand run, the
// pairs of one join packet — handed from goroutine to goroutine as one
// pointer. Exactly one component owns it at a time — the feeder or
// controller filling it, the event queue, the controller applying the
// firing rule, the worker executing it — and the last owner gives it back
// to the engine's runList.
type pageRun struct {
	n     int
	pages [relation.MaxRun]*relation.Page
}

func (r *pageRun) add(pg *relation.Page) {
	r.pages[r.n] = pg
	r.n++
}

func (r *pageRun) full() bool { return r.n == relation.MaxRun }

func (r *pageRun) slice() []*relation.Page { return r.pages[:r.n] }

// dropEmpty removes the empty pages, which fire nothing.
func (r *pageRun) dropEmpty() {
	k := 0
	for _, pg := range r.slice() {
		if !pg.Empty() {
			r.pages[k] = pg
			k++
		}
	}
	clear(r.pages[k:r.n])
	r.n = k
}

// maxFreeRuns bounds the run buffers an engine keeps idle (about 34 KB):
// a few queries' worth of scan backlog.
const maxFreeRuns = 128

// runList is the engine's free list of run buffers. It lives as long as
// the engine, as the page free list lives as long as the process, so a
// warm query allocates no run buffer; gets and puts agree whenever no
// query is running.
type runList struct {
	mu         sync.Mutex
	free       []*pageRun
	gets, puts int64
}

func (l *runList) get() *pageRun {
	l.mu.Lock()
	l.gets++
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return r
	}
	l.mu.Unlock()
	return new(pageRun)
}

// put takes back a run buffer nobody reads any more, dropping its page
// references — those a walk read into it as well. A nil list or buffer
// is ignored.
func (l *runList) put(r *pageRun) {
	if l == nil || r == nil {
		return
	}
	*r = pageRun{}
	l.mu.Lock()
	l.puts++
	if len(l.free) < maxFreeRuns {
		l.free = append(l.free, r)
	}
	l.mu.Unlock()
}

// maxParkedRuns bounds the run records an engine keeps idle: one per
// query it runs at once, for up to four at once. maxParkedNodes bounds
// the operator nodes a parked record keeps the storage of — the node
// records with their event queues and operand buffers, and each worker's
// kernel states — which covers the paper's largest query (11 nodes).
const (
	maxParkedRuns  = 4
	maxParkedNodes = 16
)

// runPark is the engine's free list of run records: the arbitration
// channel, the workers' states with their kernel states, the node
// records with their event queues, and the sink — everything a run is
// built from but its goroutines. Like runList it lives as long as the
// engine, so a warm query builds none of it. A record is taken at run
// start and parked only once shutdown has waited for every goroutine of
// the run, on failure and cancellation too.
type runPark struct {
	mu   sync.Mutex
	free []*engineRun
}

// get returns a parked record, or nil if none is idle.
func (p *runPark) get() *engineRun {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	r := p.free[n-1]
	p.free = p.free[:n-1]
	return r
}

func (p *runPark) put(r *engineRun) {
	p.mu.Lock()
	if len(p.free) < maxParkedRuns {
		p.free = append(p.free, r)
	}
	p.mu.Unlock()
}
