package mccuckoo

import (
	"io"
	"time"

	"mccuckoo/internal/core"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/telemetry"
)

// Table is the single-slot McCuckoo hash table: d hash functions, one item
// per bucket, a 2-bit copy counter per bucket (for the default d = 3), an
// off-chip stash with flag pre-screening. Keys and values are 64-bit; use
// Map for arbitrary key types.
//
// A Table is not safe for concurrent use; wrap it with NewConcurrent for
// one-writer-many-readers access.
type Table struct {
	single[*core.Table]
}

// Blocked is the multi-slot McCuckoo table (B-McCuckoo): l slots per bucket
// with one counter per slot and per-copy slot hints. It reaches load ratios
// close to 100% (Table III operates at 99–100%). It has the same methods
// and concurrency contract as Table.
type Blocked struct {
	single[*core.BlockedTable]
}

// engine is the core table kind a single-writer wrapper drives: the method
// set core.Table and core.BlockedTable share.
type engine interface {
	core.ReadOnlyLookuper
	InsertPathwise(key, value uint64) kv.Outcome
	Copies() int
	OnChipBytes() int
	RefreshStashFlags() int
	CopyHistogram() []int
	StashFlagDensity() float64
	Grow(growFactor float64) error
	Repair() RepairReport
	io.WriterTo
	SaveFile(path string) error
}

// single holds the methods Table and Blocked share, defined once over the
// core table kind. Every method is promoted to both public types.
type single[E engine] struct {
	inner E
	// sink is the attached telemetry collector; nil means telemetry is off
	// and every operation takes the plain path (one nil check, no
	// allocation).
	sink *telemetry.Sink
}

// New creates a single-slot table with roughly `capacity` buckets in total
// (rounded up to a multiple of the hash-function count).
func New(capacity int, opts ...Option) (*Table, error) {
	cfg, tel, err := buildConfig(capacity, false, opts)
	if err != nil {
		return nil, err
	}
	cfg.Slots = 1
	inner, err := core.New(cfg)
	return wrap[Table](inner, tel, err)
}

// NewBlocked creates a blocked table with roughly `capacity` slots in total.
func NewBlocked(capacity int, opts ...Option) (*Blocked, error) {
	cfg, tel, err := buildConfig(capacity, true, opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewBlocked(cfg)
	return wrap[Blocked](inner, tel, err)
}

// Load restores a single-slot table from a snapshot written by
// Table.WriteTo. The snapshot's configuration (hash functions, seed, stash,
// deletion mode, ...) travels with it, so structural options are ignored
// here; WithTelemetry attaches a collector to the restored table and counts
// a rejected (corrupt) snapshot in its corrupt-load counter.
func Load(r io.Reader, opts ...Option) (*Table, error) {
	return restore[Table](opts, func() (*core.Table, error) { return core.Load(r) })
}

// LoadBlocked restores a blocked table from a snapshot written by
// Blocked.WriteTo. Options behave as in Load.
func LoadBlocked(r io.Reader, opts ...Option) (*Blocked, error) {
	return restore[Blocked](opts, func() (*core.BlockedTable, error) { return core.LoadBlocked(r) })
}

// restore is the common body of the snapshot loaders: it reads the load
// options, then runs load and wraps its table.
func restore[T ~struct{ single[E] }, E engine](opts []Option, load func() (E, error)) (*T, error) {
	tel, err := loadOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := load()
	return wrap[T](inner, tel, err)
}

// wrap finishes every Table and Blocked constructor. On success it wraps
// inner with tel attached; a single-writer table pushes its gauges, so they
// are sampled once here (see SampleTelemetry). On failure it counts a
// corrupt snapshot in tel (see recordCorrupt) and returns err.
func wrap[T ~struct{ single[E] }, E engine](inner E, tel *Telemetry, err error) (*T, error) {
	if err != nil {
		return nil, recordCorrupt(tel, err)
	}
	s := single[E]{inner: inner}
	if tel != nil {
		s.sink = tel.sink
		s.SampleTelemetry()
	}
	return &T{s}, nil
}

// offChip returns the table's lifetime off-chip access count; deltas around
// an operation give that operation's off-chip cost. Single-writer, so
// reading the meter between operations is safe.
func (t *single[E]) offChip() int64 { return t.inner.Meter().OffChipTotal() }

// Insert stores key/value, replacing the value if key is already present
// (unless WithUniqueKeys was set).
func (t *single[E]) Insert(key, value uint64) InsertResult {
	if t.sink == nil {
		return fromOutcome(t.inner.Insert(key, value))
	}
	before, start := t.offChip(), time.Now()
	return t.insertDone(key, t.inner.Insert(key, value), before, start)
}

// InsertPathwise inserts using two-phase cuckoo-path execution: the
// shortest relocation path is found first by breadth-first search (at slot
// granularity for Blocked), then applied one bounded step at a time from
// its far end, with the table in a fully consistent state between steps. It
// is what Insert does under the single-slot table's default resolver;
// Concurrent.InsertPathwise exploits the bounded steps to interleave
// readers during relocations.
func (t *single[E]) InsertPathwise(key, value uint64) InsertResult {
	if t.sink == nil {
		return fromOutcome(t.inner.InsertPathwise(key, value))
	}
	before, start := t.offChip(), time.Now()
	return t.insertDone(key, t.inner.InsertPathwise(key, value), before, start)
}

// insertDone records an insert that began at start with the meter at
// before, and converts its outcome.
func (t *single[E]) insertDone(key uint64, o kv.Outcome, before int64, start time.Time) InsertResult {
	t.sink.RecordInsert(-1, key, o, t.offChip()-before, time.Since(start).Nanoseconds())
	return fromOutcome(o)
}

// Lookup returns the value stored for key.
func (t *single[E]) Lookup(key uint64) (uint64, bool) {
	if t.sink == nil {
		return t.inner.Lookup(key)
	}
	before, start := t.offChip(), time.Now()
	v, ok := t.inner.Lookup(key)
	t.sink.RecordLookup(-1, key, ok, t.offChip()-before, time.Since(start).Nanoseconds())
	return v, ok
}

// Delete removes key, reporting whether it was present. Deletion resets
// counters only — it performs zero off-chip writes.
func (t *single[E]) Delete(key uint64) bool {
	if t.sink == nil {
		return t.inner.Delete(key)
	}
	before, start := t.offChip(), time.Now()
	ok := t.inner.Delete(key)
	t.sink.RecordDelete(-1, key, ok, t.offChip()-before, time.Since(start).Nanoseconds())
	return ok
}

// Len returns the number of live items, stash included.
func (t *single[E]) Len() int { return t.inner.Len() }

// Capacity returns the total slot count: buckets for Table, buckets times
// slots for Blocked.
func (t *single[E]) Capacity() int { return t.inner.Capacity() }

// LoadRatio returns Len()/Capacity().
func (t *single[E]) LoadRatio() float64 { return t.inner.LoadRatio() }

// StashLen returns the current stash population.
func (t *single[E]) StashLen() int { return t.inner.StashLen() }

// Copies returns the number of live physical copies in the main table; the
// surplus over Len()-StashLen() is the redundancy maintained for placement
// flexibility.
func (t *single[E]) Copies() int { return t.inner.Copies() }

// OnChipBytes returns the size of the counter array — the fast-memory
// footprint the scheme requires (2 bits per bucket for d = 3).
func (t *single[E]) OnChipBytes() int { return t.inner.OnChipBytes() }

// RefreshStashFlags resynchronizes the stash flags after deletions by
// clearing them and reinserting every stashed item; it returns how many
// items moved back into the main table.
func (t *single[E]) RefreshStashFlags() int { return t.inner.RefreshStashFlags() }

// Traffic returns the accumulated memory-access counts.
func (t *single[E]) Traffic() Traffic {
	m := t.inner.Meter().Snapshot()
	return Traffic{m.OffChipReads, m.OffChipWrites, m.OnChipReads, m.OnChipWrites}
}

// Stats returns lifetime operation counts.
func (t *single[E]) Stats() Stats { return fromStats(t.inner.Stats()) }

// Grow rebuilds the table with a fresh hash family and growFactor times the
// capacity (>= 1; Grow(1) rehashes in place and re-absorbs the stash). This
// is the expensive operation the stash exists to avoid; use it when the
// table must actually get bigger.
func (t *single[E]) Grow(growFactor float64) error { return t.inner.Grow(growFactor) }

// WriteTo serializes the table as a versioned binary snapshot (implements
// io.WriterTo); Load or LoadBlocked restores it. The snapshot captures the
// complete logical state including the stash and the traffic meter; only
// the random-walk RNG is reseeded deterministically on load.
func (t *single[E]) WriteTo(w io.Writer) (int64, error) { return t.inner.WriteTo(w) }

// Range calls fn for every distinct live item (stash included) until fn
// returns false. Items with multiple copies are reported once. Iteration
// order is unspecified.
func (t *single[E]) Range(fn func(key, value uint64) bool) { t.inner.Range(fn) }

// CopyHistogram returns how many items currently have 1, 2, ..., d copies
// (index 0 unused): the redundancy distribution that defers collisions.
func (t *single[E]) CopyHistogram() []int { return t.inner.CopyHistogram() }

// StashFlagDensity returns the fraction of buckets whose stash flag is set —
// the false-positive pressure on the stash pre-screen (a set flag forces
// every negative lookup through that bucket to also probe the stash).
func (t *single[E]) StashFlagDensity() float64 { return t.inner.StashFlagDensity() }

// Concurrent provides one-writer-many-readers access over a Table or
// Blocked (§III.H): lookups run in parallel under a shared read lock, and
// Insert and Delete serialize on the write lock, so any number of
// goroutines may call them. Only InsertPathwise needs a sole writer. A table
// built WithTelemetry keeps recording once wrapped.
type Concurrent struct {
	inner *core.Concurrent
}

// SingleWriter is the constraint NewConcurrent accepts: exactly the table
// kinds that are NOT yet safe for concurrent use. Wrapping an
// already-thread-safe store (Sharded, or a Concurrent itself) would stack a
// redundant lock on top of its internal synchronization, so those kinds are
// rejected at compile time — `NewConcurrent(sharded)` does not build.
type SingleWriter interface {
	*Table | *Blocked
}

// NewConcurrent wraps t for concurrent use; t must not be used directly
// afterwards, except inside Do. t is the result of New or NewBlocked. The
// SingleWriter constraint makes wrapping a thread-safe kind a compile error
// rather than a silent double-locking bug.
func NewConcurrent[T SingleWriter](t T) *Concurrent {
	switch v := any(t).(type) {
	case *Table:
		return newConcurrent(v.inner, v, v.sink)
	case *Blocked:
		return newConcurrent(v.inner, v, v.sink)
	default:
		panic("mccuckoo: unreachable")
	}
}

// newConcurrent wraps inner, whose public face owner is handed to Do. With
// telemetry attached, the gauges turn live: every scrape reads them from
// the wrapped table (see gauges), so no goroutine needs to push samples.
func newConcurrent(inner core.ReadOnlyLookuper, owner BatchStore, sink *telemetry.Sink) *Concurrent {
	c := &Concurrent{inner: core.NewConcurrent(inner, owner, sink)}
	if sink != nil {
		sink.SetGaugeSource(c.gauges)
	}
	return c
}

// gauges is a Concurrent's live gauge source: the wrapped table's gauges,
// read under the write lock, with Ops taken from Stats so the lookups that
// ran in parallel under the read lock are counted.
func (c *Concurrent) gauges() telemetry.Gauges {
	var g telemetry.Gauges
	c.inner.Do(func(owner any) { g = singleGauges(owner.(gaugeReader)) })
	g.Ops = c.inner.Stats()
	return g
}

// Insert stores key/value under the write lock.
func (c *Concurrent) Insert(key, value uint64) InsertResult {
	return fromOutcome(c.inner.Insert(key, value))
}

// Lookup runs under a shared read lock; any number proceed in parallel.
func (c *Concurrent) Lookup(key uint64) (uint64, bool) { return c.inner.Lookup(key) }

// Delete removes key under the write lock.
func (c *Concurrent) Delete(key uint64) bool { return c.inner.Delete(key) }

// InsertPathwise inserts with bounded writer critical sections: the cuckoo
// path executes one move at a time, releasing the write lock between moves
// so readers interleave even during long relocation chains. Works for both
// wrapped table kinds. Because the lock is released mid-path, the caller
// must be the only writer while it runs: no Insert, Delete or other
// InsertPathwise may run concurrently.
func (c *Concurrent) InsertPathwise(key, value uint64) InsertResult {
	return fromOutcome(c.inner.InsertPathwise(key, value))
}

// Do runs fn with the write lock held, handing it the wrapped *Table or
// *Blocked: exclusive access for a checkpoint (SaveFile) or another
// whole-table operation (Repair, Grow) while every other operation waits.
// fn must not call c's methods.
func (c *Concurrent) Do(fn func(BatchStore)) {
	c.inner.Do(func(owner any) { fn(owner.(BatchStore)) })
}

// Range calls fn for every distinct live item under the shared read lock,
// until fn returns false. Lookups proceed alongside it; writers wait. fn
// must not call c's mutating methods.
func (c *Concurrent) Range(fn func(key, value uint64) bool) { c.inner.Range(fn) }

// Len returns the number of live items.
func (c *Concurrent) Len() int { return c.inner.Len() }

// Capacity returns the wrapped table's total slot count.
func (c *Concurrent) Capacity() int { return c.inner.Capacity() }

// LoadRatio returns the current load ratio.
func (c *Concurrent) LoadRatio() float64 { return c.inner.LoadRatio() }

// StashLen returns the wrapped table's stash population.
func (c *Concurrent) StashLen() int { return c.inner.StashLen() }

// Stats returns merged operation counts.
func (c *Concurrent) Stats() Stats { return fromStats(c.inner.Stats()) }

// Compile-time checks that the public Status values mirror internal ones.
var _ = [1]struct{}{}[Status(kv.Placed)-Placed]
var _ = [1]struct{}{}[Status(kv.Updated)-Updated]
var _ = [1]struct{}{}[Status(kv.Stashed)-Stashed]
var _ = [1]struct{}{}[Status(kv.Failed)-Failed]
