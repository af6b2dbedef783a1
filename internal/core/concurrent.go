package core

import (
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/telemetry"
)

// ReadOnlyLookuper is the read path a table must expose to be wrapped by
// Concurrent. Both Table and BlockedTable implement it.
type ReadOnlyLookuper interface {
	kv.Table
	LookupReadOnly(key uint64) (uint64, bool)
	LookupReadOnlyTraced(key uint64) (value uint64, ok bool, offReads int64)
	Range(fn func(key, value uint64) bool)
}

// Concurrent provides the one-writer-many-readers access mode of §III.H:
// lookups run in parallel under a shared read lock via the tables' pure
// read-only path, while insertions and deletions serialize under the write
// lock, so any number of goroutines may call Insert and Delete. Only
// InsertPathwise, which releases the lock between path moves, needs to be
// the sole writer.
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
	// owner is the caller's handle on the wrapped table, handed to Do's
	// callback under the write lock. Assigned once at construction.
	//
	//mcvet:guardedby mu
	owner any
	// sink receives one event per Insert, Lookup, Delete and
	// InsertPathwise, recorded inside the critical section so the off-chip
	// count is the operation's own; nil disables telemetry. Assigned once at
	// construction and read under mu with inner.
	//
	//mcvet:guardedby mu
	sink *telemetry.Sink

	lookups atomic.Int64
	hits    atomic.Int64
}

// NewConcurrent wraps a table for concurrent use. The wrapped table must not
// be used directly afterwards except through Do, which hands owner to its
// callback. sink, when non-nil, records every point operation.
func NewConcurrent(inner ReadOnlyLookuper, owner any, sink *telemetry.Sink) *Concurrent {
	return &Concurrent{inner: inner, owner: owner, sink: sink}
}

// opStart is what an instrumented mutation captures before it runs: the
// meter's off-chip total and the clock.
type opStart struct {
	offChip int64
	at      time.Time
}

// begin captures an opStart when a sink is attached (the zero value
// otherwise). Callers hold the write lock.
//
//mcvet:locked
func (c *Concurrent) begin() opStart {
	if c.sink == nil {
		return opStart{}
	}
	return opStart{c.inner.Meter().OffChipTotal(), time.Now()}
}

// insertDone records an insert begun at op and passes its outcome through.
// Callers hold the write lock.
//
//mcvet:locked
func (c *Concurrent) insertDone(op opStart, key uint64, o kv.Outcome) kv.Outcome {
	if c.sink != nil {
		c.sink.RecordInsert(-1, key, o, c.inner.Meter().OffChipTotal()-op.offChip,
			time.Since(op.at).Nanoseconds())
	}
	return o
}

// Do runs fn with the write lock held, handing it the owner given to
// NewConcurrent: exclusive access for checkpoints and gauge reads while
// every other operation waits.
func (c *Concurrent) Do(fn func(owner any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.owner)
}

// Range calls fn for every distinct live item of the wrapped table under
// the read lock, until fn returns false. fn must not call back into c's
// mutating methods.
func (c *Concurrent) Range(fn func(key, value uint64) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.inner.Range(fn)
}

// Insert stores key/value under the write lock.
func (c *Concurrent) Insert(key, value uint64) kv.Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sink == nil {
		return c.inner.Insert(key, value)
	}
	op := c.begin()
	return c.insertDone(op, key, c.inner.Insert(key, value))
}

// InsertPathwise inserts with bounded writer critical sections: the cuckoo
// path is executed one move at a time, releasing the write lock between
// moves so readers interleave even during long relocation chains (the
// MemC3 combination §III.H suggests — McCuckoo's counters find the path,
// and its native multi-copy representation keeps every intermediate state a
// valid table, so readers never lose an item mid-path). Both table kinds
// support pathwise execution. Because the lock is released mid-path, the
// caller must be the only writer while it runs: no concurrent Insert,
// Delete or InsertPathwise.
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
	op := c.begin()
	out, done := tryPlace(key, value)
	if done {
		c.insertDone(op, key, out)
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
		return c.insertDone(op, key, stash(key, value))
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
	return c.insertDone(op, key, finish(path[0], len(path)))
}

// Delete removes key under the write lock.
func (c *Concurrent) Delete(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sink == nil {
		return c.inner.Delete(key)
	}
	op := c.begin()
	ok := c.inner.Delete(key)
	c.sink.RecordDelete(-1, key, ok, c.inner.Meter().OffChipTotal()-op.offChip,
		time.Since(op.at).Nanoseconds())
	return ok
}

// Lookup runs under the shared read lock; any number of lookups proceed in
// parallel.
func (c *Concurrent) Lookup(key uint64) (v uint64, ok bool) {
	c.lookups.Add(1)
	c.mu.RLock()
	if c.sink == nil {
		v, ok = c.inner.LookupReadOnly(key)
	} else {
		start := time.Now()
		var off int64
		v, ok, off = c.inner.LookupReadOnlyTraced(key)
		c.sink.RecordLookup(-1, key, ok, off, time.Since(start).Nanoseconds())
	}
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
