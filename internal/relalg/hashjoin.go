package relalg

import (
	"sync/atomic"

	"dfdbm/internal/pred"
	"dfdbm/internal/relation"
)

// Kernel identifies which per-page-pair join algorithm a JoinState runs.
type Kernel uint8

const (
	// KernelNestedLoops is the paper's O(n·m) kernel: every outer tuple
	// compared with every inner tuple.
	KernelNestedLoops Kernel = iota
	// KernelHash builds a hash table over the inner page once and probes
	// each outer tuple against it — O(n+m) per page pair for equi-joins.
	KernelHash
)

// String names the kernel for traces and benchmark reports.
func (k Kernel) String() string {
	if k == KernelHash {
		return "hash"
	}
	return "nested-loops"
}

// KernelStats aggregates join-kernel work counters across the
// JoinStates that share it. Fields are updated atomically: engines
// snapshot them while workers may still be running.
type KernelStats struct {
	HashProbes  int64 // outer tuples probed against a hash table
	HashBuilds  int64 // inner-page hash tables built
	TableHits   int64 // page pairs served by a cached table
	NestedPairs int64 // tuple pairs compared by the nested kernel
}

// Load returns an atomically read copy of the counters.
func (ks *KernelStats) Load() KernelStats {
	return KernelStats{
		HashProbes:  atomic.LoadInt64(&ks.HashProbes),
		HashBuilds:  atomic.LoadInt64(&ks.HashBuilds),
		TableHits:   atomic.LoadInt64(&ks.TableHits),
		NestedPairs: atomic.LoadInt64(&ks.NestedPairs),
	}
}

// defaultTableCache bounds how many inner-page hash tables a JoinState
// retains. In the ring machine this is the IRC-vector effect of the
// paper's Section 4.2 broadcast join: the inner pages a processor has
// already seen stay resident between instruction packets.
const defaultTableCache = 64

// JoinState is the reusable per-executor state of the join kernels: the
// kernel selection for one bound condition and a cache of inner-page
// hash tables keyed by page identity. A JoinState is owned by a single
// goroutine at a time (one per worker or per IP); only the shared
// KernelStats is concurrency-safe.
//
// Both kernels emit byte-identical output in identical order: the hash
// kernel's bucket chains hold inner tuple indexes in ascending order
// and every key match is either exact by construction (single-term
// integer equality, where the canonical key is the value) or
// re-verified with the full condition, so for each outer tuple the
// matching pairs appear exactly as the nested kernel produces them.
type JoinState struct {
	cond   *pred.BoundJoin
	stats  *KernelStats
	kernel Kernel
	key    pred.HashKey
	exact  bool // key equality alone confirms a match (single-term int equi-join)

	// MaxTables bounds the inner-page table cache; oldest-built tables
	// are evicted first (deterministically) when it overflows.
	MaxTables int

	ad     emitOut // JoinPages' adapter
	buf    []byte  // the nested kernel's result tuple
	tables map[*relation.Page]*pageTable
	order  []*relation.Page // build order, for FIFO eviction
	free   []*pageTable     // evicted tables, recycled to make rebuilds allocation-free

	// Single-entry memos in front of the page-identity maps: the
	// broadcast join probes one outer page against a run of inner pages
	// (and one inner table against a run of outer pages), so the last
	// page repeats on at least one side of every pair.
	lastInner *relation.Page
	lastTable *pageTable
	lastOuter *relation.Page
	lastOKeys []uint64

	// okeys caches the canonical key vector of outer pages: under the
	// broadcast join one outer page probes every resident inner page,
	// so extracting its keys once and reusing them across the inner
	// loop removes the dominant per-probe cost. Bounded by the same
	// MaxTables FIFO discipline as the inner tables.
	okeys     map[*relation.Page][]uint64
	okeyOrder []*relation.Page
	okeyFree  [][]uint64
}

// NewJoinState returns a JoinState for the bound condition, selecting
// its kernel: hash for conditions with a hashable equality term (int or
// string key), nested loops otherwise. Float equality terms fall back to
// nested loops because their value equality is not byte equality (-0 ==
// +0, NaN). stats may be nil.
func NewJoinState(cond *pred.BoundJoin, stats *KernelStats) *JoinState {
	return new(JoinState).Aim(cond, stats)
}

// Aim points a state holding no cached table — a new one, or one Reset
// or Parked since its last use — at another bound condition, selecting
// the kernel as NewJoinState does. The storage of the tables and key
// vectors it built before serves the builds to come.
func (s *JoinState) Aim(cond *pred.BoundJoin, stats *KernelStats) *JoinState {
	s.cond, s.stats, s.MaxTables = cond, stats, defaultTableCache
	s.kernel, s.key, s.exact = KernelNestedLoops, pred.HashKey{}, false
	if key, ok := cond.HashKey(); ok {
		s.kernel = KernelHash
		s.key = key
		s.exact = cond.SingleIntEqui()
	}
	return s
}

// parkedTables bounds the recycled storage a parked JoinState keeps: at
// most this many hash tables and as many outer-key vectors, each sized
// for one inner or outer page.
const parkedTables = 8

// Park readies the state to wait, unaimed, for its next condition: it
// is Reset, so no table or key vector keyed by a page of the run it
// served survives — the page may return from the free list at the same
// address — and of the recycled storage at most parkedTables tables and
// key vectors are kept.
func (s *JoinState) Park() {
	s.Reset()
	if len(s.free) > parkedTables {
		clear(s.free[parkedTables:])
		s.free = s.free[:parkedTables]
	}
	if len(s.okeyFree) > parkedTables {
		clear(s.okeyFree[parkedTables:])
		s.okeyFree = s.okeyFree[:parkedTables]
	}
	s.cond, s.stats = nil, nil
}

// pageTable is a flat chained hash table over one inner page. heads
// holds the first tuple index of each power-of-two bucket (-1 when
// empty) and entries carries, per inner tuple, its canonical 64-bit
// key (the integer value itself, or an FNV-1a hash of the trimmed
// string bytes) together with the next tuple index of its chain — one
// cache line serves both the key compare and the chain step. Building
// prepends in descending tuple order, so every chain is traversed in
// ascending order — the emission order of the nested kernel. Compared
// to the old map[uint64][]int32 per page, probing is a multiply, a
// shift, and a short chain walk over two flat slices: no key-byte
// materialization, no map lookup.
type pageTable struct {
	heads   []int32
	entries []tableEntry
	shift   uint
}

type tableEntry struct {
	key  uint64
	next int32
}

// fibMul is the 64-bit Fibonacci-hashing multiplier (2^64/φ); the high
// bits of key*fibMul index the bucket array.
const fibMul = 0x9E3779B97F4A7C15

// Kernel reports which kernel the state runs.
func (s *JoinState) Kernel() Kernel { return s.kernel }

// TableCached reports whether the inner page's hash table is already
// resident — the machine's timing model charges no build cost for a
// cached table.
func (s *JoinState) TableCached(inner *relation.Page) bool {
	_, ok := s.tables[inner]
	return ok
}

// Reset drops the cached hash tables (a new instruction packet means a
// new inner operand) but keeps the scratch buffers; the dropped tables'
// storage is recycled for the next builds.
func (s *JoinState) Reset() {
	for _, t := range s.tables {
		s.free = append(s.free, t)
	}
	clear(s.tables)
	clear(s.order)
	s.order = s.order[:0]
	for _, k := range s.okeys {
		s.okeyFree = append(s.okeyFree, k)
	}
	clear(s.okeys)
	clear(s.okeyOrder)
	s.okeyOrder = s.okeyOrder[:0]
	s.lastInner, s.lastTable = nil, nil
	s.lastOuter, s.lastOKeys = nil, nil
}

// Build ensures the inner page's hash table is resident, building and
// caching it if necessary. Exposed so benchmarks can time the build
// phase separately from the probe phase.
func (s *JoinState) Build(inner *relation.Page) {
	if s.kernel != KernelHash || inner.TupleCount() == 0 {
		return
	}
	s.table(inner)
}

// JoinPages is JoinInto with each concatenated result tuple handed to
// emit. The emitted raw slice is reused between calls; receivers must
// copy.
func (s *JoinState) JoinPages(outer, inner *relation.Page, emit EmitFunc) (int, error) {
	n, err := s.JoinInto(outer, inner, s.ad.aim(emit, outer.TupleLen()+inner.TupleLen()))
	s.ad.emit = nil
	return n, err
}

// JoinInto joins one (outer page, inner page) pair with the selected
// kernel, writing each matched pair (outer ‖ inner) straight into out.
func (s *JoinState) JoinInto(outer, inner *relation.Page, out Out) (int, error) {
	no, ni := outer.TupleCount(), inner.TupleCount()
	if no == 0 || ni == 0 {
		return 0, nil
	}
	if s.kernel != KernelHash {
		if s.stats != nil {
			atomic.AddInt64(&s.stats.NestedPairs, int64(no)*int64(ni))
		}
		n, buf, err := joinPagesNested(outer, inner, s.cond, s.buf, out.Write)
		s.buf = buf
		return n, err
	}
	t := s.table(inner)
	okeys := s.outerKeys(outer)
	emitted := 0
	odata, otl := outer.Data(), outer.TupleLen()
	idata, itl := inner.Data(), inner.TupleLen()
	heads, entries, shift := t.heads, t.entries, t.shift
	exact := s.exact
	w := pairWriter{out: out}
	for i, k := range okeys {
		for j := heads[(k*fibMul)>>shift]; j >= 0; {
			e := entries[j]
			ji := int(j)
			j = e.next
			if e.key != k {
				continue
			}
			oraw := odata[i*otl : i*otl+otl]
			iraw := idata[ji*itl : ji*itl+itl]
			if !exact {
				// Equal canonical keys do not imply a match here (string
				// keys are hashes, and residual terms may remain): the
				// full condition re-verifies.
				ok, err := s.cond.EvalPair(oraw, iraw)
				if err != nil {
					return emitted, err
				}
				if !ok {
					continue
				}
			}
			if err := w.put(oraw, iraw); err != nil {
				return emitted, err
			}
			emitted++
		}
	}
	if s.stats != nil {
		atomic.AddInt64(&s.stats.HashProbes, int64(no))
	}
	return emitted, w.commit()
}

// pairWriter writes a join's matched pairs, outer ‖ inner, into an Out's
// room. It is kept out of the probe loop, which runs once per probe and
// writes once per match.
type pairWriter struct {
	out     Out
	room    []byte
	written int // bytes of room written and not yet committed
}

func (w *pairWriter) put(oraw, iraw []byte) error {
	tl := len(oraw) + len(iraw)
	if len(w.room)-w.written < tl {
		if err := w.commit(); err != nil {
			return err
		}
		w.room = w.out.Room()
	}
	copy(w.room[w.written:], oraw)
	copy(w.room[w.written+len(oraw):w.written+tl], iraw)
	w.written += tl
	return nil
}

// commit hands the written pairs to out; the room is spent.
func (w *pairWriter) commit() error {
	n := w.written
	if n == 0 {
		return nil
	}
	w.room, w.written = nil, 0
	return w.out.Commit(n)
}

// table returns the hash table for the inner page, building it on first
// use and caching it under the page's identity.
func (s *JoinState) table(inner *relation.Page) *pageTable {
	if inner == s.lastInner {
		if s.stats != nil {
			atomic.AddInt64(&s.stats.TableHits, 1)
		}
		return s.lastTable
	}
	if t, ok := s.tables[inner]; ok {
		if s.stats != nil {
			atomic.AddInt64(&s.stats.TableHits, 1)
		}
		s.lastInner, s.lastTable = inner, t
		return t
	}
	t := s.build(inner)
	if s.stats != nil {
		atomic.AddInt64(&s.stats.HashBuilds, 1)
	}
	if s.tables == nil {
		s.tables = make(map[*relation.Page]*pageTable)
	}
	if s.MaxTables > 0 && len(s.order) >= s.MaxTables {
		old := s.order[0]
		s.free = append(s.free, s.tables[old])
		delete(s.tables, old)
		s.order = s.order[1:]
		if old == s.lastInner {
			s.lastInner, s.lastTable = nil, nil
		}
	}
	s.tables[inner] = t
	s.order = append(s.order, inner)
	s.lastInner, s.lastTable = inner, t
	return t
}

// build constructs the flat chained table for one inner page, reusing
// an evicted table's storage when one is free.
func (s *JoinState) build(inner *relation.Page) *pageTable {
	var t *pageTable
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		t = &pageTable{}
	}
	ni := inner.TupleCount()
	// Size for a load factor of at most 0.5: halving bucket collisions
	// shortens the chain walk, which dominates the probe cost.
	size := 1
	log2 := 0
	for size < 2*ni {
		size <<= 1
		log2++
	}
	t.shift = uint(64 - log2)
	if cap(t.heads) < size {
		t.heads = make([]int32, size)
	} else {
		t.heads = t.heads[:size]
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	if cap(t.entries) < ni {
		t.entries = make([]tableEntry, ni)
	} else {
		t.entries = t.entries[:ni]
	}
	data, tl := inner.Data(), inner.TupleLen()
	key := s.key
	// Descending build order: prepending j makes each bucket chain run
	// in ascending tuple order, preserving nested-loops emission order.
	for j := ni - 1; j >= 0; j-- {
		k := key.RightKeyUint64(data[j*tl : (j+1)*tl])
		b := (k * fibMul) >> t.shift
		t.entries[j] = tableEntry{key: k, next: t.heads[b]}
		t.heads[b] = int32(j)
	}
	return t
}

// outerKeys returns the cached canonical key vector of the outer page,
// extracting it on first use.
func (s *JoinState) outerKeys(outer *relation.Page) []uint64 {
	if outer == s.lastOuter {
		return s.lastOKeys
	}
	if k, ok := s.okeys[outer]; ok {
		s.lastOuter, s.lastOKeys = outer, k
		return k
	}
	no := outer.TupleCount()
	var ks []uint64
	if n := len(s.okeyFree); n > 0 {
		ks = s.okeyFree[n-1][:0]
		s.okeyFree = s.okeyFree[:n-1]
	}
	if cap(ks) < no {
		ks = make([]uint64, no)
	} else {
		ks = ks[:no]
	}
	data, tl := outer.Data(), outer.TupleLen()
	key := s.key
	for i, p := 0, 0; i < no; i, p = i+1, p+tl {
		ks[i] = key.LeftKeyUint64(data[p : p+tl])
	}
	if s.okeys == nil {
		s.okeys = make(map[*relation.Page][]uint64)
	}
	if s.MaxTables > 0 && len(s.okeyOrder) >= s.MaxTables {
		old := s.okeyOrder[0]
		s.okeyFree = append(s.okeyFree, s.okeys[old])
		delete(s.okeys, old)
		s.okeyOrder = s.okeyOrder[1:]
		if old == s.lastOuter {
			s.lastOuter, s.lastOKeys = nil, nil
		}
	}
	s.okeys[outer] = ks
	s.okeyOrder = append(s.okeyOrder, outer)
	s.lastOuter, s.lastOKeys = outer, ks
	return ks
}

// HashJoin joins two whole relations with the hash kernel, iterating
// page pairs exactly as NestedLoopsJoin does so the result relation is
// byte-identical. The condition must have a hashable equality term.
func HashJoin(outer, inner *relation.Relation, cond pred.JoinCond, name string) (*relation.Relation, error) {
	bound, err := cond.Bind(outer.Schema(), inner.Schema())
	if err != nil {
		return nil, err
	}
	schema, err := JoinSchema(outer, inner)
	if err != nil {
		return nil, err
	}
	out, err := relation.New(name, schema, pagedSizeFor(outer, inner, schema))
	if err != nil {
		return nil, err
	}
	st := NewJoinState(bound, nil)
	if n := len(inner.Pages()); n > st.MaxTables {
		// Whole-relation form: every inner page recurs once per outer
		// page, so cap the table cache at the inner size rather than
		// thrash the FIFO.
		st.MaxTables = n
	}
	insert := out.InsertRaw // one method value: JoinPages keeps its emit in st
	for _, op := range outer.Pages() {
		for _, ip := range inner.Pages() {
			if _, err := st.JoinPages(op, ip, insert); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// FNV-1a 64-bit, inlined so key hashing allocates nothing.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnv1a64(b []byte) uint64 {
	h := fnvOffset64
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
