package core

import "sync"

// infChan is an unbounded two-class event queue with an explicit stop.
//
// Every node's instruction controller receives its events (operand
// pages, completion notices, task results) through one infChan. Making
// these queues unbounded is what guarantees the engine cannot deadlock:
// the only bounded queue in the system is the arbitration network (the
// memory cells), and the only goroutines that block on it are
// controllers dispatching work — workers and forwarders always make
// progress, so the arbitration network always drains.
//
// Task results are handed to the controller before operand events: a
// finished task's output is what the consumer above is waiting for,
// while an operand page only becomes more work for the same processors.
// In one FIFO a restrict's first result would queue behind every input
// page not yet dispatched, and so leave its controller only once its
// last input had. Within a class order is FIFO, so an evInputDone never
// overtakes the evPages of its input, nor an evTaskDone the evResults of
// its task.
//
// An evPage may carry a run buffer in place of a page. The queue owns it
// while it is queued: an event dropped at or after Stop gives its buffer
// back to runs (nil in tests that queue none).
type infChan struct {
	mu       sync.Mutex
	ready    sync.Cond // signalled when the queue goes non-empty or stops
	results  evRing    // evResult, evTaskDone
	operands evRing    // evPage, evInputDone
	stopped  bool
	runs     *runList
}

func newInfChan() *infChan {
	c := &infChan{}
	c.ready.L = &c.mu
	return c
}

// Send enqueues an event. It never blocks; once the channel has been
// stopped the event is dropped.
func (c *infChan) Send(ev event) {
	c.mu.Lock()
	if !c.stopped {
		if ev.kind == evResult || ev.kind == evTaskDone {
			c.results.push(ev)
		} else {
			c.operands.push(ev)
		}
		c.ready.Signal()
	} else {
		c.runs.put(ev.run)
	}
	c.mu.Unlock()
}

// Recv dequeues the next event, task results first. It returns
// ok == false once the channel has been stopped.
func (c *infChan) Recv() (event, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		switch {
		case c.stopped:
			return event{}, false
		case c.results.n > 0:
			return c.results.pop(), true
		case c.operands.n > 0:
			return c.operands.pop(), true
		}
		c.ready.Wait()
	}
}

// More moves into run the pages of the single-page evPage events for
// input that are queued at the head of the operand class right now,
// until run is full or some other event is in the way. It never waits:
// a controller coalesces the backlog it already has, nothing more.
func (c *infChan) More(input int32, run *pageRun) {
	c.mu.Lock()
	for q := &c.operands; q.n > 0 && !run.full(); {
		if ev := q.buf[q.head]; ev.kind != evPage || ev.input != input || ev.run != nil {
			break
		}
		run.add(q.pop().page)
	}
	c.mu.Unlock()
}

// Stop drops whatever is queued and releases a blocked receiver; later
// sends are dropped. Safe to call more than once.
func (c *infChan) Stop() {
	c.mu.Lock()
	c.stopped = true
	for c.operands.n > 0 {
		c.runs.put(c.operands.pop().run)
	}
	c.results, c.operands = evRing{}, evRing{}
	c.ready.Broadcast()
	c.mu.Unlock()
}

// evRing is a growable ring buffer of events: push and pop allocate
// nothing once it has reached the backlog's high-water mark.
type evRing struct {
	buf     []event // len is zero or a power of two
	head, n int
}

func (q *evRing) push(ev event) {
	if q.n == len(q.buf) {
		grown := make([]event, max(16, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ev
	q.n++
}

func (q *evRing) pop() event {
	ev := q.buf[q.head]
	q.buf[q.head] = event{} // drop the page references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ev
}
