package server

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"dfdbm/internal/catalog"
	"dfdbm/internal/wal"
	"dfdbm/internal/workload"
)

// chaosOps is the deterministic write script the kill -9 harness
// drives: a single sequential client issues these in order, so the
// acknowledged set is always a prefix.
var chaosOps = []string{
	`append(r15, restrict(r1, val < 120))`,
	`delete(r15, val < 40)`,
	`append(r14, restrict(r2, val < 300))`,
	`append(r13, restrict(r3, val < 500))`,
	`delete(r14, val < 250)`,
	`append(r15, restrict(r4, val < 400))`,
	`append(r12, restrict(r5, val < 350))`,
	`delete(r13, val < 100)`,
	`append(r11, restrict(r6, val < 600))`,
	`append(r15, restrict(r7, val < 200))`,
	`delete(r12, val < 150)`,
	`append(r14, restrict(r8, val < 450))`,
}

// chaosSeedCatalog is the deterministic database every crash-harness
// process starts from.
func chaosSeedCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat, _, err := workload.Build(workload.Config{Seed: 42, Scale: 0.05, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestHelperCrashServer is not a test: re-executed as a child process
// by TestCrashRecoveryChaos, it runs a WAL-backed server on the data
// directory from the environment until it is killed.
func TestHelperCrashServer(t *testing.T) {
	dir := os.Getenv("DFDBM_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-server helper: run by TestCrashRecoveryChaos only")
	}
	l, cat, _, err := wal.Open(dir, chaosWALOptions(os.Getenv("DFDBM_CRASH_HEAP_FRAMES")))
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	if cat == nil {
		cat = chaosSeedCatalog(t)
		if err := l.Checkpoint(cat); err != nil {
			t.Fatalf("helper: seed checkpoint: %v", err)
		}
	}
	s, err := Start(cat, Config{Addr: "127.0.0.1:0", WAL: l, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	// The address file signals readiness: it appears only after the
	// seed state is durable and the listener is up.
	if err := os.WriteFile(os.Getenv("DFDBM_CRASH_ADDRFILE"), []byte(s.Addr()), 0o644); err != nil {
		t.Fatalf("helper: %v", err)
	}
	select {} // hold the server open until kill -9
}

// chaosWALOptions maps the helper's frames env var to WAL options:
// empty or "0" is the default buffer-pool budget.
func chaosWALOptions(frames string) wal.Options {
	n, _ := strconv.Atoi(frames)
	return wal.Options{Heap: &wal.HeapOptions{Frames: n}}
}

// equalCatalogs compares two catalogs as multisets per relation — the
// page-order-independent notion of "same database state".
func equalCatalogs(a, b *catalog.Catalog) (bool, string) {
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		return false, fmt.Sprintf("%d relations vs %d", len(an), len(bn))
	}
	for i, name := range an {
		if bn[i] != name {
			return false, fmt.Sprintf("relation set differs at %q vs %q", name, bn[i])
		}
		ra, err := a.Get(name)
		if err != nil {
			return false, err.Error()
		}
		rb, err := b.Get(name)
		if err != nil {
			return false, err.Error()
		}
		if !ra.EqualMultiset(rb) {
			return false, fmt.Sprintf("%s: %d tuples vs %d (or differing contents)",
				name, ra.Cardinality(), rb.Cardinality())
		}
	}
	return true, ""
}

// TestCrashRecoveryChaos is the kill -9 loop: each iteration starts a
// WAL-backed server in a child process, drives the deterministic write
// script from a single client, SIGKILLs the child at a random moment,
// recovers the data directory in-process, and checks the acked-prefix
// invariant — the recovered state equals the seed plus either exactly
// the acknowledged writes or those plus the single in-flight write
// that reached the log before its acknowledgement was sent. The default
// buffer pool holds the whole working set: no page has been written
// back when the SIGKILL lands, and the log carries every write.
func TestCrashRecoveryChaos(t *testing.T) { runCrashRecoveryChaos(t, 0) }

// TestCrashRecoveryChaosHeap is the same kill -9 loop with a buffer
// pool far below the working set (8 frames of 2KiB pages), so eviction
// write-backs are in flight when the SIGKILL lands — the torn-slot case
// RecPages exists for.
func TestCrashRecoveryChaosHeap(t *testing.T) { runCrashRecoveryChaos(t, 8) }

func runCrashRecoveryChaos(t *testing.T, heapFrames int) {
	if testing.Short() {
		t.Skip("crash chaos loop is not -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(1)
	if env := os.Getenv("DFDBM_CHAOS_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("DFDBM_CHAOS_SEED: %v", err)
		}
		seed = n
	}
	rng := rand.New(rand.NewSource(seed))

	// The script is cycled so the kill window overlaps in-flight
	// writes: re-running an append grows the target again and
	// re-running a delete is a no-op, both deterministic.
	ops := make([]string, 0, 3*len(chaosOps))
	for i := 0; i < 3; i++ {
		ops = append(ops, chaosOps...)
	}

	const iterations = 4
	for it := 0; it < iterations; it++ {
		it := it
		killAfter := time.Duration(1+rng.Intn(60)) * time.Millisecond
		t.Run(fmt.Sprintf("iter%d", it), func(t *testing.T) {
			dir := t.TempDir()
			addrFile := filepath.Join(t.TempDir(), "addr")
			cmd := exec.Command(exe, "-test.run=TestHelperCrashServer$", "-test.v")
			cmd.Env = append(os.Environ(),
				"DFDBM_CRASH_DIR="+dir, "DFDBM_CRASH_ADDRFILE="+addrFile,
				"DFDBM_CRASH_HEAP_FRAMES="+strconv.Itoa(heapFrames))
			out, err := os.CreateTemp(t.TempDir(), "helper-*.log")
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stdout, cmd.Stderr = out, out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}()

			var addr string
			deadline := time.Now().Add(20 * time.Second)
			for addr == "" {
				if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
					addr = string(b)
					break
				}
				if time.Now().After(deadline) {
					log, _ := os.ReadFile(out.Name())
					t.Fatalf("helper server never came up; log:\n%s", log)
				}
				time.Sleep(5 * time.Millisecond)
			}
			c, err := Dial(addr, ClientConfig{Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			killed := make(chan struct{})
			go func() {
				defer close(killed)
				time.Sleep(killAfter)
				_ = syscall.Kill(cmd.Process.Pid, syscall.SIGKILL)
			}()

			acked := 0
			for _, op := range ops {
				if _, err := c.Query(context.Background(), op); err != nil {
					break
				}
				acked++
			}
			<-killed
			_ = cmd.Wait()

			// Cold recovery of the crashed directory, same frame budget.
			l2, got, rv, err := wal.Open(dir, chaosWALOptions(strconv.Itoa(heapFrames)))
			if err != nil {
				t.Fatalf("recovery after kill -9 (acked %d): %v", acked, err)
			}
			defer l2.Close()
			if got == nil {
				t.Fatalf("recovery returned a fresh directory although the seed was durable (acked %d)", acked)
			}

			// Reference: replay acked prefix through an identical
			// WAL-backed server, then try the +1 in-flight write.
			ref, refCat := startRefServer(t)
			for _, op := range ops[:acked] {
				if _, err := ref.Query(context.Background(), op); err != nil {
					t.Fatalf("reference replay %q: %v", op, err)
				}
			}
			ok, why := equalCatalogs(got, refCat)
			if !ok && acked < len(ops) {
				if _, err := ref.Query(context.Background(), ops[acked]); err != nil {
					t.Fatalf("reference replay %q: %v", ops[acked], err)
				}
				ok, why = equalCatalogs(got, refCat)
				if ok {
					t.Logf("kill after %v: acked %d, recovered acked+1 (in-flight write was durable)", killAfter, acked)
				}
			} else if ok {
				t.Logf("kill after %v: acked %d, recovered exactly the acked prefix (%d replayed, torn=%v)",
					killAfter, acked, rv.Replayed, rv.TornTail)
			}
			if !ok {
				t.Fatalf("kill after %v: recovered state matches neither acked=%d nor acked+1: %s",
					killAfter, acked, why)
			}
		})
	}
}

// startRefServer runs an in-process WAL-backed server over the chaos
// seed in a scratch directory and returns a connected client plus the
// live catalog the reference state accumulates in.
func startRefServer(t *testing.T) (*Client, *catalog.Catalog) {
	t.Helper()
	dir := t.TempDir()
	l, cat, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if cat == nil {
		cat = chaosSeedCatalog(t)
		if err := l.Checkpoint(cat); err != nil {
			t.Fatal(err)
		}
	}
	s := startServer(t, cat, Config{WAL: l, CheckpointEvery: -1})
	c, err := Dial(s.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cat
}
