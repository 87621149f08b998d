// Persistence: the database-at-rest workflow. Builds the paper's
// benchmark database, saves it as a data directory (heap files, a
// manifest and a log: the layout `dfdbm serve -data-dir` serves),
// reloads it, verifies queries compute identical answers, and
// round-trips a relation through CSV — the format bridge for loading
// real data into the machine.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"dfdbm"
)

func main() {
	dir, err := os.MkdirTemp("", "dfdbm-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Build and save.
	db, queries, err := dfdbm.PaperBenchmark(dfdbm.BenchmarkConfig{
		Seed: 13, Scale: 0.1, PageSize: 2048,
	})
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "paper")
	if err := db.Save(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %d relations (%d bytes of pages) as the data directory %s\n",
		len(db.Names()), db.TotalBytes(), filepath.Base(path))

	// The directory is what `dfdbm serve -data-dir` recovers: opening
	// its log finds the checkpoint, with nothing to replay.
	l, served, rv, err := dfdbm.OpenWAL(path, dfdbm.WALOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serve -data-dir accepts it: fresh %v, %d relations, %d records replayed\n",
		rv.Fresh, len(served.Names()), rv.Replayed)
	if err := l.Close(); err != nil {
		log.Fatal(err)
	}

	// Reload resident and re-run a query.
	loaded, err := dfdbm.OpenDB(path)
	if err != nil {
		log.Fatal(err)
	}
	q, err := loaded.Parse(queries[2].String())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreloaded; explaining benchmark query 3:")
	fmt.Print(dfdbm.Explain(q))

	fresh, err := db.ExecuteSerial(queries[2])
	if err != nil {
		log.Fatal(err)
	}
	reloaded, err := loaded.ExecuteSerial(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanswer identical after reload: %v (%d tuples)\n",
		fresh.EqualMultiset(reloaded), reloaded.Cardinality())

	// CSV round trip.
	var csv strings.Builder
	if err := loaded.ExportCSV("r15", &csv); err != nil {
		log.Fatal(err)
	}
	r15, _ := loaded.Get("r15")
	back, err := loaded.ImportCSV("r15_copy", r15.Schema(), strings.NewReader(csv.String()), 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSV round trip of r15: %d tuples exported, %d imported, equal: %v\n",
		r15.Cardinality(), back.Cardinality(), back.EqualMultiset(r15))
}
