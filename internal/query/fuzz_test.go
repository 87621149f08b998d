package query_test

import (
	"testing"

	"dfdbm/internal/query"
	"dfdbm/internal/workload"
)

// FuzzParse drives the query text parser, the text every client sends,
// with arbitrary strings. Its contract under fuzzing: it may reject input
// with an error, but neither it nor Render nor Bind against the paper
// database may panic on anything it accepts.
func FuzzParse(f *testing.F) {
	for _, src := range workload.QueryTexts() {
		f.Add(src)
	}
	f.Add(`project(join(restrict(r2, val > 10), r3, k1 = k1), [id, val])`)
	f.Add(`append(r15, restrict(r1, val < 150))`)
	f.Add(`delete(r15, val < 40 and not k1 = 3)`)
	cat, err := workload.BuildDatabase(workload.Config{Scale: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, err := query.Parse(src)
		if err != nil {
			return
		}
		_ = query.Render(root)
		_, _ = query.Bind(root, cat)
	})
}
