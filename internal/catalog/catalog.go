// Package catalog implements the database catalog: a named collection of
// relations. The catalog is the machine's view of "source relations in
// the database" — instructions whose operands are catalog relations are
// immediately executable, while operands produced by other instructions
// must be awaited.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dfdbm/internal/relation"
)

// Catalog is a concurrency-safe collection of named relations.
type Catalog struct {
	mu   sync.RWMutex
	rels map[string]*relation.Relation
	gen  atomic.Int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{rels: make(map[string]*relation.Relation)}
}

// Put adds or replaces a relation under its own name.
func (c *Catalog) Put(r *relation.Relation) {
	c.mu.Lock()
	c.rels[r.Name()] = r
	c.mu.Unlock()
	c.gen.Add(1)
}

// Touch records an in-place mutation of the named relation (an append
// or delete rewriting its pages), bumping the dirty generation. The
// catalog cannot observe such writes itself — relations are mutated
// directly — so the write paths report them here.
func (c *Catalog) Touch(string) { c.gen.Add(1) }

// Generation returns the catalog's dirty generation: a counter bumped
// by every Put, Drop, and Touch. A checkpoint that remembers the
// generation it snapshotted can tell whether anything changed since.
func (c *Catalog) Generation() int64 { return c.gen.Load() }

// Get returns the named relation.
func (c *Catalog) Get(name string) (*relation.Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no relation %q", name)
	}
	return r, nil
}

// Has reports whether the named relation exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.rels[name]
	return ok
}

// Drop removes the named relation, reporting whether it existed.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	_, ok := c.rels[name]
	delete(c.rels, name)
	c.mu.Unlock()
	if ok {
		c.gen.Add(1)
	}
	return ok
}

// Names returns the sorted names of all relations.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rels)
}

// TotalBytes returns the combined storage footprint of all relations —
// the "combined size of 5.5 megabytes" figure of the paper's benchmark
// database.
func (c *Catalog) TotalBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, r := range c.rels {
		n += r.ByteSize()
	}
	return n
}
