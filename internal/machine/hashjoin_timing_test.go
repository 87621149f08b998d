package machine

import (
	"testing"

	"dfdbm/internal/query"
)

// TestHashJoinTimingIdenticalResults flips the opt-in hash-cost timing
// model: the answer must be byte-for-byte what the default (paper n·m
// nested-loops cost) run computes, only the simulated clock may move.
func TestHashJoinTimingIdenticalResults(t *testing.T) {
	cat, qs := testDB(t, 0.1)
	q := qs[2] // join under restricts: an equi-join runs the hash kernel
	want, err := query.ExecuteSerial(cat, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	nestedRel, nestedRes := runOne(t, cat, q, Config{HW: smallHW()})
	hashRel, hashRes := runOne(t, cat, q, Config{HW: smallHW(), HashJoinTiming: true})
	if !nestedRel.EqualMultiset(want) || !hashRel.EqualMultiset(want) {
		t.Fatal("results differ from the serial reference")
	}
	if !nestedRel.EqualMultiset(hashRel) {
		t.Fatal("HashJoinTiming changed the query answer")
	}
	if hashRes.Stats.HashProbes == 0 {
		t.Error("equi-join recorded no hash probes")
	}
	// The hash cost model charges O(n+m) per page pair instead of n·m,
	// so the join-bound makespan must not grow.
	if hashRes.Elapsed > nestedRes.Elapsed {
		t.Errorf("hash timing makespan %v exceeds nested %v", hashRes.Elapsed, nestedRes.Elapsed)
	}
}
