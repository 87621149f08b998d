package main

import (
	"fmt"
	"math/rand"

	"dfdbm/internal/workload"
)

// opClass says which metrics an operation's timing feeds.
type opClass uint8

const (
	// classPrimary ops count toward throughput and the latency_*
	// percentiles.
	classPrimary opClass = iota
	// classTrim is the ingest writer's delete: an acknowledged write
	// that counts toward throughput but not latency (1 op in 21 would
	// sit exactly on the p95 boundary).
	classTrim
	// classReadConflict and classReadFree are the ingest reader's two
	// queries: the first shares a relation with the writer, the second
	// does not.
	classReadConflict
	classReadFree
)

type op struct {
	text  string
	class opClass
}

// deck is a workload's fixed multiset of operations, held as groups
// that a pass shuffles separately and then interleaves one-for-one.
// Every pass is the same multiset whatever the seed, so every run does
// the same work per op.
type deck struct {
	groups [][]op
}

func (d *deck) size() int {
	n := 0
	for _, g := range d.groups {
		n += len(g)
	}
	return n
}

// pass returns one seeded shuffle of the deck.
func (d *deck) pass(rng *rand.Rand) []op {
	shuffled := make([][]op, len(d.groups))
	for i, g := range d.groups {
		s := append([]op(nil), g...)
		rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		shuffled[i] = s
	}
	out := make([]op, 0, d.size())
	for i := 0; len(out) < cap(out); i++ {
		for _, s := range shuffled {
			if i < len(s) {
				out = append(out, s[i])
			}
		}
	}
	return out
}

// distinct returns the deck's distinct query texts in first-seen order.
func (d *deck) distinct() []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range d.groups {
		for _, o := range g {
			if !seen[o.text] {
				seen[o.text] = true
				out = append(out, o.text)
			}
		}
	}
	return out
}

// spec describes one workload: what is served, from where, by how many
// sessions. The database itself is the same for all four.
type spec struct {
	name string
	// sessions is the number of closed-loop client sessions (never more
	// than 2: the sandbox has 2 cores and the server shares them).
	sessions int
	// durable workloads serve from a data directory through the buffer
	// pool and the write-ahead log; the others from memory.
	durable bool
	// frames is the buffer-pool budget in pages of 2 KB.
	frames int
	// checkpointEvery is the auto-checkpoint threshold in log bytes.
	checkpointEvery int64
	// warmPasses is the fixed warm-up, sized to at least 2 s on the
	// reference host so set-up is dominated by fixed work.
	warmPasses int
	// deck is what the sessions draw from. For ingest it is the
	// reader's deck; the writer's pass is writerPass.
	deck deck
}

const (
	// stageRel is the relation the ingest writer appends to and trims.
	stageRel = "stage_a"
	// appendsPerPass bounds stage_a: an append returns the whole
	// destination, so the trim after 20 appends bounds the result.
	appendsPerPass = 20

	ingestAppend = "append(stage_a, restrict(r14, val < 20))"
	ingestSource = "restrict(r14, val < 20)"
	ingestTrim   = "delete(stage_a, val >= 0)"
	ingestRead   = "restrict(stage_a, val < 10)"
	ingestProbe  = "restrict(r14, val < 10)" // what one append contributes to ingestRead
	ingestFree   = "restrict(r1, val < 100)"
)

// writerPass is the ingest writer's fixed pass.
func writerPass() []op {
	out := make([]op, 0, appendsPerPass+1)
	for i := 0; i < appendsPerPass; i++ {
		out = append(out, op{ingestAppend, classPrimary})
	}
	return append(out, op{ingestTrim, classTrim})
}

func primary(texts ...string) []op {
	out := make([]op, len(texts))
	for i, t := range texts {
		out[i] = op{t, classPrimary}
	}
	return out
}

var workloadNames = []string{"mix", "fetch", "cold", "ingest"}

func specFor(name string) (*spec, error) {
	switch name {
	case "mix":
		return &spec{name: name, sessions: 2, warmPasses: 40,
			deck: deck{groups: [][]op{primary(workload.QueryTexts()...)}}}, nil
	case "fetch":
		var texts []string
		for k := 1; k <= 5; k++ {
			texts = append(texts, fmt.Sprintf("restrict(r%d, val < 1000)", k))
		}
		return &spec{name: name, sessions: 1, warmPasses: 80,
			deck: deck{groups: [][]op{primary(texts...)}}}, nil
	case "cold":
		// Each big scan reads a relation of 175–400 pages once through a
		// 64-frame pool; each small one reads r14 or r15 (50 and 35
		// pages), which stay resident only if the scans do not flush
		// them. Thresholds keep results to one or two pages.
		var big, small []string
		for k := 1; k <= 8; k++ {
			for t := 5; t <= 15; t++ {
				big = append(big, fmt.Sprintf("restrict(r%d, val < %d)", k, t))
				small = append(small, fmt.Sprintf("restrict(r%d, val < %d)", 14+k%2, t))
			}
		}
		return &spec{name: name, sessions: 2, durable: true, frames: 64, warmPasses: 6,
			deck: deck{groups: [][]op{primary(big...), primary(small...)}}}, nil
	case "ingest":
		reader := make([]op, 0, 8)
		for i := 0; i < 4; i++ {
			reader = append(reader, op{ingestRead, classReadConflict}, op{ingestFree, classReadFree})
		}
		return &spec{name: name, sessions: 2, durable: true, frames: 4096,
			checkpointEvery: 4 << 20, warmPasses: 20,
			deck: deck{groups: [][]op{reader}}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
