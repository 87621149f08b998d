package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/obs"
)

// benchRecord builds the append every benchmark logs over and over: 8
// tuples onto the seeded relation. It is never applied, so the same
// post-images stay valid, and replaying them is idempotent.
func benchRecord(b *testing.B, cat *catalog.Catalog) *Record {
	b.Helper()
	dst, err := cat.Get("ev")
	if err != nil {
		b.Fatal(err)
	}
	rec, err := AppendRecord(dst, buildSrc(b, 0, 8))
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// cloneRecord copies a record so the same write can be logged again
// (Append assigns the LSN in place).
func cloneRecord(r *Record) *Record {
	c := *r
	return &c
}

// BenchmarkAppend measures one sequential writer: under FsyncCommit
// this is the fsync-per-write floor that group commit exists to beat;
// under FsyncNone it is the pure framing + page-cache write cost.
func BenchmarkAppend(b *testing.B) {
	for _, pol := range []FsyncPolicy{FsyncCommit, FsyncNone} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			l, cat := openSeeded(b, b.TempDir(), Options{Fsync: pol})
			defer l.Close()
			rec := benchRecord(b, cat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(cloneRecord(rec)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupCommit measures W concurrent writers sharing fsyncs
// through the group-commit batcher. Reported fsyncs/op shows the
// batching factor: with one writer every append pays a full fsync;
// with many, a batch amortizes one fsync across its members.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			reg := obs.NewRegistry(time.Second)
			l, cat := openSeeded(b, b.TempDir(), Options{Fsync: FsyncCommit, Obs: obs.New(nil, reg)})
			defer l.Close()
			rec := benchRecord(b, cat)
			start := reg.Counter("wal.fsyncs")
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / writers
			if per == 0 {
				per = 1
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := l.Append(cloneRecord(rec)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			ops := float64(per * writers)
			b.ReportMetric(float64(reg.Counter("wal.fsyncs")-start)/ops, "fsyncs/op")
		})
	}
}

// BenchmarkRecovery measures cold wal.Open over a log with n records
// past the manifest's cover — the replay cost a restart pays per log length.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			l, cat := openSeeded(b, dir, Options{Fsync: FsyncNone})
			rec := benchRecord(b, cat)
			for i := 0; i < n; i++ {
				if _, err := l.Append(cloneRecord(rec)); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l2, cat, rv, err := Open(dir, Options{Fsync: FsyncNone})
				if err != nil {
					b.Fatal(err)
				}
				if cat == nil || rv.Replayed != n {
					b.Fatalf("replayed %d records, want %d", rv.Replayed, n)
				}
				if err := l2.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
