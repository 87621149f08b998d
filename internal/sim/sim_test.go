package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Errorf("final time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var hits []time.Duration
	s.After(5*time.Millisecond, func() {
		hits = append(hits, s.Now())
		s.After(7*time.Millisecond, func() {
			hits = append(hits, s.Now())
		})
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 5*time.Millisecond || hits[1] != 12*time.Millisecond {
		t.Errorf("hits = %v", hits)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	s := New()
	fired := time.Duration(-1)
	s.At(10*time.Millisecond, func() {
		s.At(1*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 10*time.Millisecond {
		t.Errorf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestStationSingleServerFCFS(t *testing.T) {
	s := New()
	st := NewStation(s, 1)
	var finishes []time.Duration
	record := func() { finishes = append(finishes, s.Now()) }
	// Three 10 ms jobs submitted at time zero must finish at 10, 20, 30.
	st.Serve(10*time.Millisecond, record)
	st.Serve(10*time.Millisecond, record)
	st.Serve(10*time.Millisecond, record)
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if finishes[i] != want[i] {
			t.Errorf("finish %d = %v, want %v", i, finishes[i], want[i])
		}
	}
	if st.Jobs() != 3 || st.BusyTime() != 30*time.Millisecond {
		t.Errorf("jobs=%d busy=%v", st.Jobs(), st.BusyTime())
	}
	if u := st.Utilization(30 * time.Millisecond); u != 1.0 {
		t.Errorf("utilization = %g, want 1", u)
	}
}

func TestStationMultiServer(t *testing.T) {
	s := New()
	st := NewStation(s, 2)
	var finishes []time.Duration
	record := func() { finishes = append(finishes, s.Now()) }
	st.Serve(10*time.Millisecond, record)
	st.Serve(10*time.Millisecond, record)
	st.Serve(10*time.Millisecond, record)
	s.Run()
	// Two run immediately (finish at 10), third queues (finish at 20).
	if finishes[0] != 10*time.Millisecond || finishes[1] != 10*time.Millisecond ||
		finishes[2] != 20*time.Millisecond {
		t.Errorf("finishes = %v", finishes)
	}
	if u := st.Utilization(20 * time.Millisecond); u != 0.75 {
		t.Errorf("utilization = %g, want 0.75", u)
	}
}

func TestStationLaterArrival(t *testing.T) {
	s := New()
	st := NewStation(s, 1)
	var finish time.Duration
	s.At(50*time.Millisecond, func() {
		st.Serve(5*time.Millisecond, func() { finish = s.Now() })
	})
	s.Run()
	if finish != 55*time.Millisecond {
		t.Errorf("finish = %v, want 55ms (no service before arrival)", finish)
	}
}

func TestStationNilDone(t *testing.T) {
	s := New()
	st := NewStation(s, 1)
	end := st.Serve(time.Second, nil)
	if end != time.Second {
		t.Errorf("Serve returned %v", end)
	}
	s.Run()
}

func TestStationMinServers(t *testing.T) {
	s := New()
	st := NewStation(s, 0)
	if len(st.freeAt) != 1 {
		t.Error("zero-server station not clamped to 1")
	}
	if st.Utilization(0) != 0 {
		t.Error("Utilization with zero elapsed should be 0")
	}
}

func TestResourceGrantAndQueue(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var granted []int
	for i := 0; i < 4; i++ {
		i := i
		r.Acquire(func() { granted = append(granted, i) })
	}
	s.Run()
	if len(granted) != 2 || r.Free() != 0 || r.Waiting() != 2 {
		t.Fatalf("granted=%v free=%d waiting=%d", granted, r.Free(), r.Waiting())
	}
	r.Release()
	r.Release()
	s.Run()
	if len(granted) != 4 {
		t.Errorf("granted after releases = %v", granted)
	}
	// FIFO: waiters granted in order.
	for i, g := range granted {
		if g != i {
			t.Errorf("grant order = %v", granted)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Error("TryAcquire failed with a free unit")
	}
	if r.TryAcquire() {
		t.Error("TryAcquire succeeded with no free units")
	}
	r.Release()
	if r.Free() != 1 {
		t.Errorf("Free = %d after release", r.Free())
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	s := New()
	r := NewResource(s, 1)
	r.Release()
}
