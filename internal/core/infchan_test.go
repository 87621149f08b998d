package core

import (
	"sync"
	"testing"
	"time"
)

func TestInfChanFIFO(t *testing.T) {
	c := newInfChan()
	defer c.Stop()
	for i := 0; i < 100; i++ {
		c.Send(event{kind: evPage, input: int32(i)})
	}
	for i := 0; i < 100; i++ {
		ev, ok := c.Recv()
		if !ok {
			t.Fatalf("Recv %d failed", i)
		}
		if int(ev.input) != i {
			t.Fatalf("event %d arrived out of order (input=%d)", i, ev.input)
		}
	}
}

func TestInfChanUnboundedSendNeverBlocks(t *testing.T) {
	c := newInfChan()
	defer c.Stop()
	done := make(chan struct{})
	go func() {
		// Far more sends than any internal channel buffer, with no
		// receiver draining.
		for i := 0; i < 10_000; i++ {
			c.Send(event{input: int32(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked without a receiver")
	}
	// Everything is still delivered in order.
	for i := 0; i < 10_000; i++ {
		ev, ok := c.Recv()
		if !ok || int(ev.input) != i {
			t.Fatalf("event %d lost or reordered", i)
		}
	}
}

func TestInfChanStopReleasesBothSides(t *testing.T) {
	c := newInfChan()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			if _, ok := c.Recv(); !ok {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			c.Send(event{input: int32(i)})
			if i > 1000 {
				return
			}
		}
	}()
	time.Sleep(time.Millisecond)
	c.Stop()
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release blocked goroutines")
	}
}

func TestInfChanStopIdempotent(t *testing.T) {
	c := newInfChan()
	c.Stop()
	c.Stop() // must not panic
	if _, ok := c.Recv(); ok {
		t.Error("Recv succeeded after Stop")
	}
	c.Send(event{}) // must not block or panic
}

func TestInfChanConcurrentSenders(t *testing.T) {
	c := newInfChan()
	defer c.Stop()
	const senders, per = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Send(event{kind: evPage, input: int32(s)})
			}
		}(s)
	}
	counts := make([]int, senders)
	for i := 0; i < senders*per; i++ {
		ev, ok := c.Recv()
		if !ok {
			t.Fatalf("Recv %d failed", i)
		}
		counts[ev.input]++
	}
	wg.Wait()
	for s, n := range counts {
		if n != per {
			t.Errorf("sender %d: %d events, want %d", s, n, per)
		}
	}
}

// TestInfChanResultsFirst: task results are handed over before operand
// events however they were interleaved on the way in, and each class
// stays FIFO — over 10,000 sends with no receiver, so an evInputDone
// can never overtake the evPages of its input.
func TestInfChanResultsFirst(t *testing.T) {
	c := newInfChan()
	defer c.Stop()
	const n = 10_000
	for i := 0; i < n; i++ {
		c.Send(event{kind: evPage, input: int32(i)})
		if i%4 == 0 {
			c.Send(event{kind: evTaskDone, input: int32(i)})
		}
	}
	c.Send(event{kind: evInputDone, input: n})
	for i := 0; i < n; i += 4 {
		ev, ok := c.Recv()
		if !ok || ev.kind != evTaskDone || int(ev.input) != i {
			t.Fatalf("want task result %d, got kind %d input %d (ok=%v)", i, ev.kind, ev.input, ok)
		}
	}
	for i := 0; i < n; i++ {
		ev, ok := c.Recv()
		if !ok || ev.kind != evPage || int(ev.input) != i {
			t.Fatalf("want operand page %d, got kind %d input %d (ok=%v)", i, ev.kind, ev.input, ok)
		}
	}
	if ev, ok := c.Recv(); !ok || ev.kind != evInputDone {
		t.Fatalf("input-done did not arrive last (kind %d, ok=%v)", ev.kind, ok)
	}
	// A result sent while operands are waiting still goes first.
	c.Send(event{kind: evPage, input: 1})
	c.Send(event{kind: evTaskDone, input: 2})
	if ev, _ := c.Recv(); ev.kind != evTaskDone {
		t.Fatalf("result did not overtake the waiting operand (kind %d)", ev.kind)
	}
}

// TestInfChanSteadyStateAllocs: once the rings have reached the
// backlog's size, a Send/Recv pair allocates nothing.
func TestInfChanSteadyStateAllocs(t *testing.T) {
	c := newInfChan()
	defer c.Stop()
	for i := 0; i < 100; i++ { // a standing backlog in both classes
		c.Send(event{kind: evPage})
		c.Send(event{kind: evTaskDone})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Send(event{kind: evPage})
		c.Send(event{kind: evTaskDone})
		c.Recv()
		c.Recv()
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per two Send/Recv pairs, want 0", allocs)
	}
}
