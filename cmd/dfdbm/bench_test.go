package main

import (
	"slices"
	"strings"
	"testing"
)

// TestBenchRowsMatchCommittedReport: the table declares exactly the
// rows of the committed BENCH_machine.json, in its order — a row added
// to one and not the other fails here, not in CI's -compare step.
func TestBenchRowsMatchCommittedReport(t *testing.T) {
	committed, err := readBenchReport("../../BENCH_machine.json")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, b := range committed.Benchmarks {
		want = append(want, b.Name)
	}
	for _, s := range benchSections {
		for _, r := range s.rows {
			got = append(got, r.name)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("benchSections rows:\n got %q\nwant %q (BENCH_machine.json)", got, want)
	}
}

// TestBenchFilterPicksSections: -only runs a section when any of its
// rows matches a prefix, and CI's kernel step picks exactly the kernel
// and hash-phase sections.
func TestBenchFilterPicksSections(t *testing.T) {
	filter := parseBenchFilter("kernel/, equijoin/hash-build,equijoin/hash-probe")
	var picked []string
	for _, s := range benchSections {
		if slices.ContainsFunc(s.rows, func(r benchRow) bool { return filter.match(r.name) }) {
			picked = append(picked, s.rows[0].name)
		}
	}
	if want := []string{"equijoin/hash-build", "kernel/restrict-scalar"}; !slices.Equal(picked, want) {
		t.Errorf("sections picked by the CI kernel filter start at %q, want %q", picked, want)
	}
	if !parseBenchFilter("").match("direct/run") {
		t.Error("the empty filter does not match every row")
	}
}

// row is a report entry with the fields the gate reads.
func row(name string, ns float64, allocs int64, metrics map[string]float64) benchEntry {
	return benchEntry{Name: name, Iterations: 1, NsPerOp: ns, AllocsPerOp: allocs, Metrics: metrics}
}

func report(rows ...benchEntry) benchReport { return benchReport{Benchmarks: rows} }

// TestCompareBenchReports holds each gate rule to its boundary: the
// last value inside it passes and the first one past it fails.
func TestCompareBenchReports(t *testing.T) {
	dispatches := func(n float64) map[string]float64 { return map[string]float64{"dispatches": n} }
	reads := func(n float64) map[string]float64 { return map[string]float64{"reads": n} }
	cases := []struct {
		name        string
		base, fresh benchReport
		only        string
		wantErr     string // "" means the gate passes
	}{
		{name: "throughput floor holds at 75%",
			base: report(row("kernel/restrict-batch", 300, 0, nil)), fresh: report(row("kernel/restrict-batch", 400, 0, nil))},
		{name: "throughput floor fails under 75%",
			base: report(row("kernel/restrict-batch", 300, 0, nil)), fresh: report(row("kernel/restrict-batch", 401, 0, nil)),
			wantErr: "kernel/restrict-batch: 300 -> 401 ns/op"},
		{name: "ns gate holds at 1.25x",
			base: report(row("core/fetch-restrict", 400, 0, nil)), fresh: report(row("core/fetch-restrict", 500, 0, nil))},
		{name: "ns gate fails over 1.25x",
			base: report(row("core/fetch-restrict", 400, 0, nil)), fresh: report(row("core/fetch-restrict", 501, 0, nil)),
			wantErr: "core/fetch-restrict: 400 -> 501 ns/op"},
		{name: "allocs gate holds at 1.25x",
			base: report(row("heap/append", 100, 100, nil)), fresh: report(row("heap/append", 100, 125, nil))},
		{name: "allocs gate fails over 1.25x",
			base: report(row("heap/append", 100, 100, nil)), fresh: report(row("heap/append", 100, 126, nil)),
			wantErr: "heap/append: 100 -> 126 allocs/op"},
		{name: "allocs are not gated on an ungated row",
			base: report(row("heap/scan-warm", 100, 1, nil)), fresh: report(row("heap/scan-warm", 100, 50, nil))},
		{name: "count slack 1 holds at the baseline",
			base: report(row("heap/scan-run", 100, 1, reads(53))), fresh: report(row("heap/scan-run", 100, 1, reads(53)))},
		{name: "count slack 1 fails one over",
			base: report(row("core/restrict-400", 100, 0, dispatches(17))), fresh: report(row("core/restrict-400", 100, 0, dispatches(18))),
			wantErr: "core/restrict-400: 17 -> 18 dispatches"},
		{name: "count slack 1.25 holds at 1.25x",
			base: report(row("core/paper-mix", 100, 0, dispatches(340))), fresh: report(row("core/paper-mix", 100, 0, dispatches(425)))},
		{name: "count slack 1.25 fails over 1.25x",
			base: report(row("core/paper-mix", 100, 0, dispatches(340))), fresh: report(row("core/paper-mix", 100, 0, dispatches(426))),
			wantErr: "core/paper-mix: 340 -> 426 dispatches"},
		{name: "a row missing from the fresh report is an error",
			base: report(row("direct/run", 100, 0, nil), row("machine/ring-run", 100, 0, nil)), fresh: report(row("direct/run", 100, 0, nil)),
			wantErr: "machine/ring-run is in the baseline but missing"},
		{name: "a new row passes",
			base: report(row("direct/run", 100, 0, nil)), fresh: report(row("direct/run", 100, 0, nil), row("new/row", 1e9, 1e6, nil))},
		{name: "-only skips baseline rows it does not match",
			base:  report(row("kernel/restrict-batch", 100, 0, nil), row("heap/append", 100, 1, nil)),
			fresh: report(row("kernel/restrict-batch", 100, 0, nil)), only: "kernel/"},
		{name: "-only still gates the rows it matches",
			base:  report(row("kernel/restrict-batch", 100, 0, nil), row("heap/append", 100, 1, nil)),
			fresh: report(row("kernel/restrict-batch", 200, 0, nil)), only: "kernel/",
			wantErr: "kernel/restrict-batch: 100 -> 200 ns/op"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lines, err := compareBenchReports(c.base, c.fresh, parseBenchFilter(c.only))
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("gate error %v, want one naming %q", err, c.wantErr)
			case c.wantErr == "" && len(lines) == 0:
				t.Fatal("no row was compared")
			}
		})
	}
}
