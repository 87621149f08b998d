// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment (see DESIGN.md's experiment index).
// Simulated 1979 quantities (execution seconds, Mbps, traffic ratios)
// are attached to each benchmark as custom metrics, so `go test
// -bench=. -benchmem` reproduces the paper's numbers alongside the
// host-side cost of computing them.
package dfdbm_test

import (
	"sync"
	"testing"
	"time"

	"dfdbm"
)

const benchSeed = 5

// benchScale keeps full benchmark sweeps affordable on a laptop while
// preserving multi-page operands everywhere. EXPERIMENTS.md records the
// full-scale (1.0) runs.
const benchScale = 0.3

var (
	benchOnce     sync.Once
	benchDB       *dfdbm.DB
	benchQueries  []*dfdbm.Query
	benchProfiles []dfdbm.QueryProfile
	benchErr      error
)

func benchSetup(b *testing.B) (*dfdbm.DB, []*dfdbm.Query, []dfdbm.QueryProfile) {
	b.Helper()
	benchOnce.Do(func() {
		benchDB, benchQueries, benchErr = dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{
			Seed:  benchSeed,
			Scale: benchScale,
		})
		if benchErr != nil {
			return
		}
		benchProfiles, benchErr = dfdbm.ProfileQueries(benchDB, benchQueries, dfdbm.DefaultHW().PageSize)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDB, benchQueries, benchProfiles
}

// BenchmarkFig31Granularity regenerates Figure 3.1: the ten-query
// benchmark on DIRECT under page-level versus relation-level
// granularity. The simulated execution time is reported as
// "sim-seconds" and the relation/page ratio of the pair as "rel/page".
func BenchmarkFig31Granularity(b *testing.B) {
	_, _, profiles := benchSetup(b)
	for _, procs := range []int{8, 32, 64} {
		for _, strat := range []dfdbm.Granularity{dfdbm.PageLevel, dfdbm.RelationLevel} {
			name := strat.String() + "/procs=" + itoa(procs)
			b.Run(name, func(b *testing.B) {
				var last dfdbm.DirectReport
				for i := 0; i < b.N; i++ {
					rep, err := dfdbm.SimulateDIRECT(dfdbm.DirectConfig{
						Processors: procs,
						Strategy:   strat,
					}, profiles)
					if err != nil {
						b.Fatal(err)
					}
					last = rep
				}
				b.ReportMetric(last.Elapsed.Seconds(), "sim-seconds")
			})
		}
	}
}

// BenchmarkTable33Traffic regenerates the Section 3.3 analysis on the
// functional engine: arbitration-network bytes at tuple-level versus
// page-level granularity for a benchmark join, with 1000-byte pages and
// 100-byte tuples.
func BenchmarkTable33Traffic(b *testing.B) {
	db, qs, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{
		Seed: benchSeed, Scale: 0.1, PageSize: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	q := qs[2]
	bytesAt := map[dfdbm.Granularity]int64{}
	for _, g := range []dfdbm.Granularity{dfdbm.PageLevel, dfdbm.TupleLevel} {
		b.Run(g.String(), func(b *testing.B) {
			var arb int64
			for i := 0; i < b.N; i++ {
				res, err := db.Execute(q, dfdbm.EngineOptions{
					Granularity: g, Workers: 4, PageSize: 1000,
				})
				if err != nil {
					b.Fatal(err)
				}
				arb = res.Stats.ArbitrationBytes
			}
			bytesAt[g] = arb
			b.ReportMetric(float64(arb), "arb-bytes")
			if page := bytesAt[dfdbm.PageLevel]; page > 0 && g == dfdbm.TupleLevel {
				b.ReportMetric(float64(arb)/float64(page), "tuple/page-ratio")
			}
		})
	}
}

// BenchmarkFig42Bandwidth regenerates Figure 4.2's headline point: the
// average bandwidth demand of DIRECT with page-level granularity at the
// 50-IP configuration the 40 Mbps ring must carry.
func BenchmarkFig42Bandwidth(b *testing.B) {
	_, _, profiles := benchSetup(b)
	for _, procs := range []int{8, 50, 128} {
		b.Run("ips="+itoa(procs), func(b *testing.B) {
			var rep dfdbm.DirectReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = dfdbm.SimulateDIRECT(dfdbm.DirectConfig{Processors: procs}, profiles)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ProcCacheMbps(), "ip-cache-mbps")
			b.ReportMetric(rep.CacheDiskMbps(), "cache-disk-mbps")
			b.ReportMetric(rep.ControlMbps(), "control-mbps")
		})
	}
}

// BenchmarkJoinAlgorithms regenerates the Section 2.1 contrast on real
// kernels — nested loops (the paper's multiprocessor algorithm) versus
// the equi-join hash kernel the engines now auto-select — measured on
// the host, plus the serial and data-flow executions around them.
func BenchmarkJoinAlgorithms(b *testing.B) {
	db, qs, _ := benchSetup(b)
	_ = qs
	outer, err := db.Get("r5")
	if err != nil {
		b.Fatal(err)
	}
	inner, err := db.Get("r11")
	if err != nil {
		b.Fatal(err)
	}
	cond := dfdbm.Equi("k3", "k3")
	q, err := db.Parse(`join(r5, r11, k3 = k3)`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kernel/nested-loops", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dfdbm.NestedLoopsJoin(outer, inner, cond, "out"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel/hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dfdbm.HashJoin(outer, inner, cond, "out"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.ExecuteSerial(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dataflow-8w", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Execute(q, dfdbm.EngineOptions{Workers: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMachinePagePool measures the ring machine's multi-query run
// and how many intermediate pages it recycles through the page free
// list (counters attached); the list touches only host-side allocation,
// never the simulated makespan.
func BenchmarkMachinePagePool(b *testing.B) {
	db, qs, _ := benchSetup(b)
	hw := dfdbm.DefaultHW()
	hw.PageSize = 2048
	b.ReportAllocs()
	var res *dfdbm.MachineResults
	for i := 0; i < b.N; i++ {
		m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw, ICs: 16, IPs: 16})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{0, 2, 5} {
			if err := m.Submit(qs[n]); err != nil {
				b.Fatal(err)
			}
		}
		res, err = m.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.PagesRecycled), "pages-recycled")
	b.ReportMetric(float64(res.Stats.PoolHits), "pool-hits")
	b.ReportMetric(float64(res.Stats.HashProbes), "hash-probes")
	b.ReportMetric(res.Elapsed.Seconds(), "sim-seconds")
}

// BenchmarkRingNetworks regenerates the Section 4.1 loop comparison:
// mean message delay on DLCN, Newhall, and Pierce loops under the same
// variable-length load.
func BenchmarkRingNetworks(b *testing.B) {
	for _, kind := range []dfdbm.RingKind{dfdbm.DLCN, dfdbm.NewhallLoop, dfdbm.PierceLoop} {
		b.Run(kind.String(), func(b *testing.B) {
			var res dfdbm.RingResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = dfdbm.SimulateRing(dfdbm.RingConfig{
					Kind:     kind,
					Nodes:    16,
					Messages: 3000,
					MeanGap:  200 * time.Microsecond,
					MinLen:   64,
					MaxLen:   2048,
					Seed:     benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.MeanDelay.Microseconds()), "mean-delay-us")
		})
	}
}

// BenchmarkBroadcastJoin regenerates the Section 4.2 protocol run: a
// benchmark join through the ring machine's broadcast protocol.
func BenchmarkBroadcastJoin(b *testing.B) {
	db, qs, _ := benchSetup(b)
	hw := dfdbm.DefaultHW()
	hw.PageSize = 2048
	var stats dfdbm.MachineStats
	for i := 0; i < b.N; i++ {
		m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw, IPsPerInstruction: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Submit(qs[2]); err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.ReportMetric(float64(stats.Broadcasts), "broadcasts")
	b.ReportMetric(float64(stats.RecoveryRequests), "recoveries")
}

// BenchmarkDirectRouting regenerates the Section 5 ablation: outer-ring
// bytes with and without IP-to-IP result routing.
func BenchmarkDirectRouting(b *testing.B) {
	db, _, _ := benchSetup(b)
	hw := dfdbm.DefaultHW()
	hw.PageSize = 2048
	q, err := db.Parse(`restrict(restrict(r1, val < 500), k1 < 50)`)
	if err != nil {
		b.Fatal(err)
	}
	for _, direct := range []bool{false, true} {
		name := "via-ic"
		if direct {
			name = "ip-to-ip"
		}
		b.Run(name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw, DirectRouting: direct})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Submit(q); err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Stats.OuterRingBytes
			}
			b.ReportMetric(float64(bytes), "outer-ring-bytes")
		})
	}
}

// BenchmarkParallelProject regenerates the Section 5 open problem: the
// serial-controller duplicate elimination versus the hash-partitioned
// parallel algorithm, on the functional engine.
func BenchmarkParallelProject(b *testing.B) {
	db, _, _ := benchSetup(b)
	q, err := db.Parse(`project(r1, [k1, k2])`)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []dfdbm.ProjectStrategy{dfdbm.ProjectSerialIC, dfdbm.ProjectPartitioned} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Execute(q, dfdbm.EngineOptions{Workers: 8, Project: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentQueries regenerates the Section 4.0 requirement:
// a multi-query mix through the machine with concurrency control.
func BenchmarkConcurrentQueries(b *testing.B) {
	db, qs, _ := benchSetup(b)
	hw := dfdbm.DefaultHW()
	hw.PageSize = 2048
	var res *dfdbm.MachineResults
	for i := 0; i < b.N; i++ {
		m, err := dfdbm.NewMachine(db, dfdbm.MachineConfig{HW: hw, ICs: 16, IPs: 16})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range qs[:5] {
			if err := m.Submit(q); err != nil {
				b.Fatal(err)
			}
		}
		res, err = m.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Elapsed.Seconds(), "sim-seconds")
	b.ReportMetric(res.IPUtilization, "ip-utilization")
}

// BenchmarkEngineGranularities measures the functional engine itself
// across the three granularities (host time; the simulated comparison
// is BenchmarkFig31Granularity).
func BenchmarkEngineGranularities(b *testing.B) {
	db, qs, _ := benchSetup(b)
	q := qs[5]
	for _, g := range []dfdbm.Granularity{dfdbm.RelationLevel, dfdbm.PageLevel, dfdbm.TupleLevel} {
		b.Run(g.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Execute(q, dfdbm.EngineOptions{Granularity: g, Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkPageSizeAblation regenerates the Section 3.3 page-size
// trade-off: arbitration traffic versus achievable concurrency.
func BenchmarkPageSizeAblation(b *testing.B) {
	db, qs, _ := benchSetup(b)
	for _, pageSize := range []int{2048, 16384, 262144} {
		b.Run("page="+itoa(pageSize), func(b *testing.B) {
			profiles, err := dfdbm.ProfileQueries(db, qs, pageSize)
			if err != nil {
				b.Fatal(err)
			}
			hw := dfdbm.DefaultHW()
			hw.PageSize = pageSize
			b.ResetTimer()
			var rep dfdbm.DirectReport
			for i := 0; i < b.N; i++ {
				rep, err = dfdbm.SimulateDIRECT(dfdbm.DirectConfig{Processors: 50, HW: hw}, profiles)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Elapsed.Seconds(), "sim-seconds")
			b.ReportMetric(float64(rep.Tasks), "tasks")
		})
	}
}

// BenchmarkMemoryCells regenerates the Section 3.2 configuration
// ablation: the effect of memory cells per processor.
func BenchmarkMemoryCells(b *testing.B) {
	_, _, profiles := benchSetup(b)
	for _, cells := range []int{1, 2, 4} {
		b.Run("cells="+itoa(cells), func(b *testing.B) {
			var rep dfdbm.DirectReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = dfdbm.SimulateDIRECT(dfdbm.DirectConfig{
					Processors: 16, CellsPerProcessor: cells,
				}, profiles)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Elapsed.Seconds(), "sim-seconds")
		})
	}
}
