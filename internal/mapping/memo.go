package mapping

import "sync"

// Memo memoises one value per distinct genome. It is keyed by a 64-bit
// genome hash the caller supplies (normally Mapping.Hash); genomes that
// share a hash are told apart with Equal, so a collision costs a
// recomputation, never a wrong value. The memo keeps a reference to
// every genome it stores, which must therefore not be modified
// afterwards — the GA engine never modifies an evaluated genome (its
// offspring are clones). The zero value is empty and ready to use; a
// lookup allocates nothing. Safe for concurrent use.
type Memo[V any] struct {
	mu sync.Mutex
	m  map[uint64]memoEntry[V]
}

// memoEntry is one stored genome; genomes that share a hash chain
// through next, which is nil for all but colliding ones.
type memoEntry[V any] struct {
	genome *Mapping
	v      V
	next   *memoEntry[V]
}

// Get returns the value stored for a genome equal to m, whose hash is
// h.
func (c *Memo[V]) Get(h uint64, m *Mapping) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[h]; ok {
		for p := &e; p != nil; p = p.next {
			if p.genome.Equal(m) {
				return p.v, true
			}
		}
	}
	var zero V
	return zero, false
}

// Add stores v for m, whose hash is h, unless a genome equal to m is
// already stored; it reports whether v was stored. Concurrent callers
// that computed the same genome's value race here, and exactly one of
// them stores it.
func (c *Memo[V]) Add(h uint64, m *Mapping, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[h]
	if !ok {
		if c.m == nil {
			c.m = make(map[uint64]memoEntry[V])
		}
		c.m[h] = memoEntry[V]{genome: m, v: v}
		return true
	}
	for p := &e; p != nil; p = p.next {
		if p.genome.Equal(m) {
			return false
		}
	}
	// A collision: chain the new genome behind the first one.
	e.next = &memoEntry[V]{genome: m, v: v, next: e.next}
	c.m[h] = e
	return true
}
