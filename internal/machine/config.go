package machine

import (
	"fmt"
	"time"

	"dfdbm/internal/fault"
	"dfdbm/internal/hw"
	"dfdbm/internal/obs"
	"dfdbm/internal/relation"
)

// Config parameterizes a machine instance (Figure 4.1).
type Config struct {
	// ICs is the number of instruction controllers; a query needs one
	// IC per operator node, so the largest admissible query has ICs
	// instructions.
	ICs int
	// IPs is the size of the instruction-processor pool.
	IPs int
	// IPsPerInstruction is the allocation an IC requests from the MC
	// when its instruction becomes enabled; grants may be smaller when
	// the pool is contended, and are topped up as processors free, as
	// in Section 4.2.
	IPsPerInstruction int
	// ICLocalPages is the capacity of an IC's local page memory;
	// ICCachePages is its segment of the multiport disk cache. Pages
	// overflow local memory into the cache and the cache onto disk —
	// the three-level hierarchy of Section 4.1.
	ICLocalPages int
	ICCachePages int
	// IPBufferPages bounds the inner-relation pages an IP can buffer
	// during a broadcast join. A full buffer makes the IP ignore a
	// broadcast, exercising the missed-page recovery of Section 4.2.
	IPBufferPages int
	// DirectRouting enables the Section 5 extension: result pages of an
	// instruction feeding a unary consumer travel IP→IP instead of
	// IP→IC→IP.
	DirectRouting bool
	// HashJoinTiming charges equi-join work at the hash kernel's
	// O(n+m) cost (hw.Processor.HashJoinTime, with builds skipped for
	// inner pages whose table is already resident on the processor)
	// instead of the paper's nested-loops n·m. Off by default so the
	// simulated timings — and golden traces — match the paper's model;
	// results are identical either way.
	HashJoinTiming bool
	// HW supplies device timings; zero value means hw.Default1979.
	HW hw.Config
	// Fault, when non-nil, injects the plan's faults (IP crashes,
	// dropped and duplicated packets) and switches the machine into its
	// resilient protocol: IPs report work completion in atomic
	// completion packets, ICs watch outstanding instruction packets
	// with a virtual-time watchdog and re-dispatch lost work, and
	// MC <-> IC control traffic retransmits on loss. Build one fresh
	// Plan per machine. Mutually exclusive with DirectRouting.
	Fault *fault.Plan
	// WatchdogTimeout is how long (virtual time) an IC waits without
	// progress from a busy processor before suspecting it and reporting
	// the failure to the MC. Zero means 3s. Only used when Fault is
	// set.
	WatchdogTimeout time.Duration
	// RetryBudget bounds how often one work unit (an operand page or a
	// join outer page) may be re-dispatched after faults before Run
	// gives up with a FaultError. Zero means 8. Only used when Fault is
	// set.
	RetryBudget int
	// Obs, when non-nil, receives every protocol event (admissions,
	// grants, packets, broadcasts, completions) as a structured obs.Event
	// stamped with the virtual time, through its sink, and — when it
	// carries a registry — virtual-time metric timelines plus the run's
	// Stats re-expressed as counters and gauges.
	Obs *obs.Observer
}

func (c Config) withDefaults() (Config, error) {
	if c.ICs <= 0 {
		c.ICs = 12
	}
	if c.IPs <= 0 {
		c.IPs = 24
	}
	if c.IPsPerInstruction <= 0 {
		c.IPsPerInstruction = 4
	}
	if c.ICLocalPages <= 0 {
		c.ICLocalPages = 16
	}
	if c.ICCachePages <= 0 {
		c.ICCachePages = 64
	}
	if c.IPBufferPages <= 0 {
		c.IPBufferPages = 4
	}
	if c.HW.PageSize == 0 {
		c.HW = hw.Default1979()
	}
	if c.WatchdogTimeout <= 0 {
		c.WatchdogTimeout = 3 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 8
	}
	if c.ICs < 1 || c.IPs < 1 {
		return c, fmt.Errorf("machine: need at least one IC and one IP")
	}
	if c.Fault != nil && c.DirectRouting {
		return c, fmt.Errorf("machine: fault injection and direct routing are mutually exclusive")
	}
	return c, nil
}

// Stats meters one machine run.
type Stats struct {
	// Ring traffic.
	OuterRingPackets, OuterRingBytes int64
	InnerRingPackets, InnerRingBytes int64
	// Packet counts by kind on the outer ring.
	InstructionPackets, ResultPackets, ControlPackets int64
	// Broadcast-join protocol events.
	Broadcasts        int64
	BroadcastsIgnored int64 // dropped for a full IP buffer
	RecoveryRequests  int64 // re-requests of missed inner pages
	// Storage hierarchy.
	DiskReads, DiskWrites   int64
	CacheReads, CacheWrites int64
	// Direct IP→IP routing (Section 5 extension).
	DirectRoutedPages int64
	// Host-side page memory: the run's deltas of the process's page free
	// list (relation.PageStats), which intermediate pages are recycled
	// through between hops. Other work in the process during the run
	// counts too.
	PoolHits, PoolMisses, PagesRecycled int64
	// Join kernels: outer tuples probed, inner-page hash tables built,
	// page pairs served by a resident table, and nested-loops tuple
	// pairs compared.
	HashProbes, HashBuilds, HashTableHits int64
	NestedPairs                           int64
	// Concurrency control.
	QueriesDelayedByConflict int64
	// Fault injection and recovery (populated only when Config.Fault is
	// set, except IPsFailed which ScheduleIPFailure also counts).
	FaultsInjected    int64 // crashes + drops + dups + cache faults injected
	PacketsDropped    int64 // packets lost to the plan
	PacketsDuplicated int64 // duplicate transits injected (discarded on arrival)
	IPsCrashed        int64 // processors crashed by the plan
	IPsFailed         int64 // processors the MC marked failed
	WatchdogTimeouts  int64 // IC watchdog expiries (suspected processors)
	Redispatches      int64 // work units re-dispatched after a fault
	RecoveredPages    int64 // re-dispatched work units that later completed
	Retransmits       int64 // retransmissions on the reliable channels
}

// QueryResult is the outcome of one submitted query.
type QueryResult struct {
	QueryID   int
	Relation  *relation.Relation
	Submitted time.Duration
	Started   time.Duration
	Finished  time.Duration
}

// Results is the outcome of a machine run.
type Results struct {
	PerQuery []QueryResult
	Stats    Stats
	// Elapsed is the completion time of the last query.
	Elapsed time.Duration
	// OuterRingUtilization is the outer ring's busy fraction.
	OuterRingUtilization float64
	// IPUtilization is the mean compute-busy fraction of the IP pool.
	IPUtilization float64
}

// OuterRingMbps returns the average outer-ring load of the run.
func (r Results) OuterRingMbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.OuterRingBytes) * 8 / 1e6 / r.Elapsed.Seconds()
}
