package machine

import (
	"dfdbm/internal/relalg"
	"dfdbm/internal/relation"
)

// The kernel wrappers run the real operator implementations against an
// instruction's bound predicates; processors produce actual result
// tuples, so a simulation's answers can be checked against the serial
// reference executor.

func restrictPage(pg *relation.Page, mi *minstr, emit relalg.EmitFunc) (int, error) {
	// Batched kernel: bitmap pass over the page, then a walk of its runs
	// of set bits. Byte-identical output to relalg.RestrictPage.
	return mi.restrict.RestrictPage(pg, emit)
}

func projectPage(pg *relation.Page, mi *minstr, emit relalg.EmitFunc) (int, error) {
	// No per-processor duplicate elimination: the instruction's IC
	// deduplicates globally (the serial algorithm the paper's Section 5
	// identifies as the open problem).
	return mi.project.ProjectPage(pg, nil, emit)
}

// Joins run through the per-IP relalg.JoinState (see ip.execPair): the
// kernel — hash for equi-joins, nested loops otherwise — is selected
// from the bound condition, and both kernels emit identical results.
