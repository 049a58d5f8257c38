package bitset

import "sync"

// Pool recycles Bitsets of a single universe size.  The Clique Enumerator
// allocates one common-neighbor bitmap per sub-list per level; on genome-
// scale graphs that is millions of short-lived ceil(n/8)-byte buffers, so
// reuse matters.  A Pool is safe for concurrent use by multiple
// goroutines, matching the paper's multithreaded setting where worker
// threads create and free sub-lists independently.
type Pool struct {
	n    int
	pool sync.Pool
}

// NewPool returns a pool of Bitsets over the universe [0, n).
func NewPool(n int) *Pool {
	p := &Pool{n: n}
	p.pool.New = func() any { return New(n) }
	return p
}

// Get returns an empty Bitset over [0, n).  The caller owns it until Put.
func (p *Pool) Get() *Bitset {
	b := p.pool.Get().(*Bitset)
	b.ClearAll()
	return b
}

// GetNoClear returns a Bitset whose contents are unspecified; callers that
// immediately overwrite every word (e.g. via And) can skip the clearing
// pass that Get performs.
func (p *Pool) GetNoClear() *Bitset {
	return p.pool.Get().(*Bitset)
}

// Put returns b to the pool.  b must have been created by this pool or
// share its universe size; nil is ignored.
func (p *Pool) Put(b *Bitset) {
	if b == nil {
		return
	}
	if b.n != p.n {
		panic("bitset: Put of foreign-universe Bitset")
	}
	p.pool.Put(b)
}
