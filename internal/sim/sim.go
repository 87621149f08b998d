// Package sim is a small deterministic discrete-event simulation kernel:
// a virtual clock, an event heap, and two service primitives (Station, a
// k-server FCFS queue, and Resource, a counted semaphore). The DIRECT
// simulator and the ring-machine simulator are built on it.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order, so a simulation run is a pure function of its inputs.
package sim

import (
	"container/heap"
	"time"
)

// Sim is one simulation: a clock and a pending-event queue.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    uint64
}

// New returns a simulation with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past runs the event at the current time (never before: the clock is
// monotonic).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Step runs the next pending event, returning false when none remain.
func (s *Sim) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(*event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run executes events until none remain and returns the final time.
func (s *Sim) Run() time.Duration {
	for s.Step() {
	}
	return s.now
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.events.Len() }

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
