package core

import (
	"sync"
	"sync/atomic"

	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

// ReadOnlyLookuper is the read path a table must expose to be wrapped by
// Concurrent. Both Table and BlockedTable implement it.
type ReadOnlyLookuper interface {
	kv.Table
	LookupReadOnly(key uint64) (uint64, bool)
}

// Concurrent provides the one-writer-many-readers access mode of §III.H:
// lookups run in parallel under a shared read lock via the tables' pure
// read-only path, while insertions and deletions serialize under the write
// lock.
//
// The paper suggests MemC3-style optimistic versioned reads; in Go that
// pattern is a data race by the memory model (readers would observe torn
// bucket writes), so the honest equivalent is a reader/writer lock: the same
// concurrency structure — unlimited parallel readers, one writer — with
// defined behaviour. McCuckoo keeps writer critical sections short exactly
// because the counters find short cuckoo paths quickly.
type Concurrent struct {
	mu sync.RWMutex
	// inner is assigned once at construction and never reassigned; the
	// lock guards the wrapped table's mutable state, so every call into
	// inner must hold mu (read lock for the read-only path).
	//
	//mcvet:guardedby mu
	inner ReadOnlyLookuper

	lookups atomic.Int64
	hits    atomic.Int64
}

// NewConcurrent wraps a table for concurrent use. The wrapped table must not
// be used directly afterwards.
func NewConcurrent(inner ReadOnlyLookuper) *Concurrent {
	return &Concurrent{inner: inner}
}

// Insert stores key/value under the write lock.
func (c *Concurrent) Insert(key, value uint64) kv.Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Insert(key, value)
}

// InsertPathwise inserts with bounded writer critical sections: the cuckoo
// path is executed one move at a time, releasing the write lock between
// moves so readers interleave even during long relocation chains (the
// MemC3 combination §III.H suggests — McCuckoo's counters find the path,
// and its native multi-copy representation keeps every intermediate state a
// valid table, so readers never lose an item mid-path). Both table kinds
// support pathwise execution. There must be exactly one writer goroutine,
// the same contract as Insert/Delete.
func (c *Concurrent) InsertPathwise(key, value uint64) kv.Outcome {
	// The type switch reads only the interface word, which is immutable
	// after construction; the staged calls take the lock per move.
	switch t := c.inner.(type) { //mcvet:allow lockdiscipline inner is write-once at construction; only its pointee needs mu
	case *Table:
		return pathwiseInsert(c, key, value,
			t.TryPlace, t.FindPath, t.ApplyMove, t.StashOverflow,
			func(head PathMove, n int) kv.Outcome { return t.FinishPath(key, value, head, n) })
	case *BlockedTable:
		return pathwiseInsert(c, key, value,
			t.TryPlace, t.FindPath, t.ApplyMove, t.StashOverflow,
			func(head BlockedPathMove, n int) kv.Outcome { return t.FinishPath(key, value, head, n) })
	default:
		return c.Insert(key, value)
	}
}

// pathwiseInsert runs the staged protocol with the write lock released
// between path moves, for either table kind.
func pathwiseInsert[M any](c *Concurrent, key, value uint64,
	tryPlace func(uint64, uint64) (kv.Outcome, bool),
	findPath func(uint64) ([]M, bool),
	applyMove func(M) error,
	stash func(uint64, uint64) kv.Outcome,
	finish func(M, int) kv.Outcome,
) kv.Outcome {
	c.mu.Lock()
	out, done := tryPlace(key, value)
	if done {
		c.mu.Unlock()
		return out
	}
	// FindPath only reads table state (plus the writer-owned search
	// scratch, RNG and meter), so holding the write lock is not required
	// for reader safety — but it is cheap to keep it for the discovery
	// too, since discovery does no off-chip writes. Release before
	// executing.
	path, found := findPath(key)
	c.mu.Unlock()
	if !found {
		c.mu.Lock()
		defer c.mu.Unlock()
		return stash(key, value)
	}
	for i := len(path) - 1; i >= 0; i-- {
		c.mu.Lock()
		err := applyMove(path[i])
		c.mu.Unlock()
		if err != nil {
			// Unreachable with a single writer; surface loudly.
			panic(err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return finish(path[0], len(path))
}

// Delete removes key under the write lock.
func (c *Concurrent) Delete(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Delete(key)
}

// Lookup runs under the shared read lock; any number of lookups proceed in
// parallel.
func (c *Concurrent) Lookup(key uint64) (uint64, bool) {
	c.lookups.Add(1)
	c.mu.RLock()
	v, ok := c.inner.LookupReadOnly(key)
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// Len returns the number of live items.
func (c *Concurrent) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.Len()
}

// Capacity returns the wrapped table's capacity.
func (c *Concurrent) Capacity() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.Capacity()
}

// LoadRatio returns the wrapped table's load ratio.
func (c *Concurrent) LoadRatio() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.LoadRatio()
}

// StashLen returns the wrapped table's stash population.
func (c *Concurrent) StashLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.StashLen()
}

// Meter returns the wrapped table's meter. Only the writer path charges it;
// take the write lock or quiesce writers before reading it.
func (c *Concurrent) Meter() *memmodel.Meter {
	return c.inner.Meter() //mcvet:allow lockdiscipline documented racy accessor; callers must quiesce writers first
}

// Stats merges the writer-side stats with the atomically counted concurrent
// lookups.
func (c *Concurrent) Stats() kv.Stats {
	c.mu.RLock()
	st := c.inner.Stats()
	c.mu.RUnlock()
	st.Lookups += c.lookups.Load()
	st.Hits += c.hits.Load()
	return st
}

var _ kv.Table = (*Concurrent)(nil)
