package main

import (
	"fmt"
	"math/rand"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed reference. The sandbox this benchmark runs in shifts
// speed by ±15 % in spells of 30–90 s, which no median inside a run
// removes. Between rounds the benchmark therefore times two kernels of
// its own that exercise what the service path leans on — dependent
// memory loads and loopback TCP wake-ups — and expresses each against
// a committed constant. Time-based end-to-end metrics are reported at
// that reference speed; counts are never touched.
const (
	arenaBytes = 64 << 20
	lineBytes  = 64
	walkSteps  = 300_000
	pingTrips  = 300

	// Reference constants: medians of the two kernels over 600 readings
	// taken during 25 minutes of load on the machine the first result
	// sets were recorded on (README, "Host-speed reference"). They fix
	// the unit of host_slowness; changing them rescales every time
	// metric by the same factor.
	walkRefNs = 46_400_000
	pingRefNs = 3_870_000
)

// hostRef owns the two kernels' state: an mmap'd arena holding one
// random cycle over its cache lines, and a loopback TCP pair with an
// echo goroutine on the far end.
type hostRef struct {
	arena []byte
	pos   uint32

	ln       net.Listener
	near     net.Conn
	far      net.Conn
	echoDone chan struct{}
}

// newHostRef maps the arena outside the Go heap (a heap slice of this
// size would change GC pacing for the program under test), threads a
// fixed random cycle through it, and connects the ping pair.
func newHostRef() (*hostRef, error) {
	h := &hostRef{}
	arena, err := syscall.Mmap(-1, 0, arenaBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference: mmap arena: %w", err)
	}
	h.arena = arena
	// Sattolo's algorithm yields a single cycle through every line, so
	// a walk of any length never revisits a line early.
	lines := arenaBytes / lineBytes
	perm := make([]uint32, lines)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(64))
	for i := lines - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, next := range perm {
		*(*uint32)(unsafe.Pointer(&arena[i*lineBytes])) = next
	}

	h.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, fmt.Errorf("host reference: listen: %w", err)
	}
	h.near, err = net.Dial("tcp", h.ln.Addr().String())
	if err != nil {
		h.close()
		return nil, fmt.Errorf("host reference: dial: %w", err)
	}
	h.far, err = h.ln.Accept()
	if err != nil {
		h.close()
		return nil, fmt.Errorf("host reference: accept: %w", err)
	}
	h.echoDone = make(chan struct{})
	go func(c net.Conn) {
		defer close(h.echoDone)
		var b [1]byte
		for {
			if _, err := c.Read(b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}(h.far)
	return h, nil
}

// close unmaps the arena, closes the ping pair and waits for the echo
// goroutine. Safe on a partly built value and when called twice.
func (h *hostRef) close() {
	if h.near != nil {
		h.near.Close()
		h.near = nil
	}
	if h.far != nil {
		h.far.Close()
		h.far = nil
	}
	if h.echoDone != nil {
		<-h.echoDone
		h.echoDone = nil
	}
	if h.ln != nil {
		h.ln.Close()
		h.ln = nil
	}
	if h.arena != nil {
		_ = syscall.Munmap(h.arena) // the process is about to exit or reuse nothing of it
		h.arena = nil
	}
}

// walk follows the cycle for walkSteps dependent loads.
func (h *hostRef) walk() time.Duration {
	start := time.Now()
	pos := h.pos
	base := unsafe.Pointer(&h.arena[0])
	for i := 0; i < walkSteps; i++ {
		pos = *(*uint32)(unsafe.Add(base, uintptr(pos)*lineBytes))
	}
	h.pos = pos
	return time.Since(start)
}

// ping makes pingTrips one-byte round trips over the loopback pair.
func (h *hostRef) ping() (time.Duration, error) {
	start := time.Now()
	var b [1]byte
	for i := 0; i < pingTrips; i++ {
		if _, err := h.near.Write(b[:]); err != nil {
			return 0, fmt.Errorf("host reference: ping write: %w", err)
		}
		if _, err := h.near.Read(b[:]); err != nil {
			return 0, fmt.Errorf("host reference: ping read: %w", err)
		}
	}
	return time.Since(start), nil
}

// hostReading is one between-rounds measurement.
type hostReading struct {
	walk, ping time.Duration
}

// slowness is the reading against the reference constants: the
// geometric mean of the two kernels' slow-down factors.
func (r hostReading) slowness() float64 {
	return geomean(float64(r.walk)/walkRefNs, float64(r.ping)/pingRefNs)
}

func (h *hostRef) read() (hostReading, error) {
	w := h.walk()
	p, err := h.ping()
	return hostReading{walk: w, ping: p}, err
}

// hostSlowness is a run's reference: the median of its readings.
func hostSlowness(readings []hostReading) float64 {
	vals := make([]float64, len(readings))
	for i, r := range readings {
		vals[i] = r.slowness()
	}
	return median(vals)
}

// referenced converts a measured metric to the reference host speed:
// times are divided by the run's slowness, rates multiplied, and
// everything else — counts, bytes, ratios — passes through.
func referenced(kind metricKind, v, slowness float64) float64 {
	switch kind {
	case kindTime:
		return v / slowness
	case kindRate:
		return v * slowness
	default:
		return v
	}
}
