package heap

import (
	"errors"
	"sync"
	"time"

	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

// ErrNoFrames is returned by Pin and Install when every frame in the
// pool is pinned and none can be evicted. It is a typed, panic-free
// signal: callers under the admission scheduler's exclusion can retry
// after releasing pins, and tests assert on it directly.
var ErrNoFrames = errors.New("heap: all buffer frames pinned")

// DefaultFrames is the pool budget used when a caller passes a
// non-positive frame count.
const DefaultFrames = 1024

// Pool is the pinning buffer manager — the paper's multiport disk
// cache between mass storage (heap files) and the engines' IC-level
// memory. It holds a fixed budget of frames keyed by (file, page),
// with pin/unpin reference counts, dirty tracking, and CLOCK
// second-chance eviction that writes dirty victims back to their heap
// file before reuse.
//
// Concurrency: one mutex covers the table, the ring, and the I/O done
// on miss/eviction. That serializes disk traffic like the paper's
// single-ported disk would, and keeps the write-back/redirty race
// closed. Readers of an evicted frame stay safe without latching:
// eviction only drops the pool's reference, so a *Page handed out
// earlier remains valid (Go GC) — and writers cannot mutate it
// concurrently because the admission scheduler gives every relation a
// single writer. Frame pages outlive their pin as a matter of course
// (Relation.EachPage unpins before the engine's worker has read the
// page), so a miss must never decode into the evicted frame's page: it
// always gets a fresh one (File.ReadPage), and the collector takes the
// old one after its last reader.
type Pool struct {
	mu    sync.Mutex // lock order: Store.mu -> Pool.mu, never the reverse
	cap   int
	table map[frameKey]*frame
	ring  []*frame
	hand  int
	// pinned counts frames with pins > 0, kept on every 0<->1 edge so
	// the gauges cost nothing per Pin; Snapshot recounts it by walking.
	pinned int

	reg   *obs.Registry
	epoch time.Time
}

type frameKey struct {
	f    *File
	page int
}

type frame struct {
	key   frameKey
	pg    *relation.Page
	pins  int
	ref   bool // CLOCK second-chance bit
	dirty bool
}

// NewPool creates a pool with the given frame budget (DefaultFrames
// if frames <= 0). The observer may be nil; when it carries a metrics
// registry the pool maintains bufpool.* counters and gauges and
// charges its I/O time to the bufpool.busy_us timeline.
func NewPool(frames int, o *obs.Observer) *Pool {
	if frames <= 0 {
		frames = DefaultFrames
	}
	p := &Pool{
		cap:   frames,
		table: make(map[frameKey]*frame),
		reg:   o.Registry(),
		epoch: time.Now(),
	}
	if p.reg != nil {
		p.reg.SetGauge("bufpool.frames", float64(frames))
		p.reg.SetGauge("bufpool.frames_in_use", 0)
		p.reg.SetGauge("bufpool.pinned", 0)
	}
	return p
}

// PoolResource is the saturation-attribution spec for the buffer
// pool's disk port: busy time accumulated on bufpool.busy_us, one
// server (the pool serializes its I/O).
func PoolResource() obs.ResourceSpec {
	return obs.ResourceSpec{Name: "bufpool", Timeline: "bufpool.busy_us", Servers: 1}
}

// Cap returns the frame budget.
func (p *Pool) Cap() int { return p.cap }

// Pin returns page i of f pinned in a frame, reading it from disk on
// miss (evicting a victim first when the pool is full). Every Pin
// must be paired with an Unpin.
func (p *Pool) Pin(f *File, i int) (*relation.Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := frameKey{f, i}
	if fr, ok := p.table[key]; ok {
		if fr.pins == 0 {
			p.pinned++
		}
		fr.pins++
		fr.ref = true
		p.count("bufpool.hits", 1)
		p.gauges()
		return fr.pg, nil
	}
	fr, err := p.freeFrameLocked()
	if err != nil {
		return nil, err
	}
	start := time.Since(p.epoch)
	pg, err := f.ReadPage(i)
	p.busy(start)
	if err != nil {
		// The frame stays free (zero-valued key is absent from table).
		return nil, err
	}
	p.count("bufpool.misses", 1)
	fr.key, fr.pg, fr.pins, fr.ref, fr.dirty = key, pg, 1, true, false
	p.table[key] = fr
	p.pinned++
	p.gauges()
	return pg, nil
}

// Unpin releases one pin on page i of f; dirty marks the frame for
// write-back and folds the page's tuple count into the file's logical
// state.
func (p *Pool) Unpin(f *File, i int, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := frameKey{f, i}
	fr, ok := p.table[key]
	if !ok || fr.pins <= 0 {
		panic("heap: Unpin without matching Pin")
	}
	fr.pins--
	if fr.pins == 0 {
		p.pinned--
	}
	if dirty {
		fr.dirty = true
		if err := f.NotePage(i, fr.pg.TupleCount()); err != nil {
			panic(err) // i is resident in a frame, so it cannot be out of range
		}
	}
	p.gauges()
}

// Install places a full post-image of page i of f into the pool,
// dirty: the one mutation primitive (live appends and WAL replay).
// i may extend the file by exactly one page.
func (p *Pool) Install(f *File, i int, pg *relation.Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := frameKey{f, i}
	fr, ok := p.table[key]
	if !ok {
		var err error
		if fr, err = p.freeFrameLocked(); err != nil {
			return err
		}
	}
	if err := f.NotePage(i, pg.TupleCount()); err != nil {
		return err
	}
	fr.key, fr.pg, fr.ref, fr.dirty = key, pg, true, true
	p.table[key] = fr
	p.gauges()
	return nil
}

// freeFrameLocked returns an unused frame: grows the ring while under
// budget, otherwise runs the CLOCK hand over the ring — skipping
// pinned frames, clearing second-chance bits, writing back dirty
// victims — for at most two sweeps. All frames pinned => ErrNoFrames.
func (p *Pool) freeFrameLocked() (*frame, error) {
	if len(p.ring) < p.cap {
		fr := &frame{}
		p.ring = append(p.ring, fr)
		return fr, nil
	}
	for pass := 0; pass < 2*len(p.ring); pass++ {
		fr := p.ring[p.hand]
		p.hand = (p.hand + 1) % len(p.ring)
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		if fr.dirty {
			start := time.Since(p.epoch)
			err := fr.key.f.WritePage(fr.key.page, fr.pg)
			p.busy(start)
			if err != nil {
				return nil, err
			}
			p.count("bufpool.writebacks", 1)
			fr.dirty = false
		}
		delete(p.table, fr.key)
		p.count("bufpool.evictions", 1)
		fr.key, fr.pg = frameKey{}, nil
		return fr, nil
	}
	return nil, ErrNoFrames
}

// FlushFile writes back every dirty frame belonging to f and marks
// them clean. Frames stay resident (a checkpoint does not chill the
// cache).
func (p *Pool) FlushFile(f *File) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.table {
		if key.f != f || !fr.dirty {
			continue
		}
		start := time.Since(p.epoch)
		err := f.WritePage(key.page, fr.pg)
		p.busy(start)
		if err != nil {
			return err
		}
		p.count("bufpool.writebacks", 1)
		fr.dirty = false
	}
	return nil
}

// DropFile discards every frame belonging to f, dirty or not — the
// delete path replaces the whole file, so its cached pages are dead.
func (p *Pool) DropFile(f *File) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.table {
		if key.f != f {
			continue
		}
		delete(p.table, key)
		if fr.pins > 0 {
			p.pinned--
		}
		fr.key, fr.pg, fr.pins, fr.ref, fr.dirty = frameKey{}, nil, 0, false, false
	}
	p.gauges()
}

// Stats is a point-in-time snapshot of the pool for tests and audits.
type Stats struct {
	Cap, InUse, Pinned, Dirty int
}

// Snapshot returns current pool occupancy.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{Cap: p.cap, InUse: len(p.table)}
	for _, fr := range p.table {
		if fr.pins > 0 {
			st.Pinned++
		}
		if fr.dirty {
			st.Dirty++
		}
	}
	return st
}

func (p *Pool) count(name string, delta int64) {
	if p.reg != nil {
		p.reg.Inc(name, delta)
	}
}

func (p *Pool) busy(start time.Duration) {
	if p.reg != nil {
		p.reg.AddBusy("bufpool.busy_us", start, time.Since(p.epoch)-start)
	}
}

func (p *Pool) gauges() {
	if p.reg == nil {
		return
	}
	p.reg.SetGauge("bufpool.frames_in_use", float64(len(p.table)))
	p.reg.SetGauge("bufpool.pinned", float64(p.pinned))
}
