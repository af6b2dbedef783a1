package mccuckoo

// This file is the unified face of the four table kinds (Table, Blocked,
// Concurrent, Sharded). Store and BatchStore name their common contract
// once, so a consumer — the benchmark harness, the trace replayer, the
// examples — needs no per-kind dispatch; the network serving layer
// (internal/wire, cmd/mcserved) binds to these interfaces and nothing else.

// Store is the operation surface every table kind implements: point
// operations plus the inspection methods a server or harness needs to
// reason about occupancy.
//
// Implementations differ in their concurrency contract, not their method
// set: Table and Blocked are single-goroutine structures, Concurrent
// serializes writers and runs readers in parallel, and Sharded is safe for
// any number of goroutines. See the package documentation's Concurrency section before
// sharing a Store between goroutines.
type Store interface {
	// Insert stores key/value, replacing the value if key is already
	// present (unless the table was built WithUniqueKeys).
	Insert(key, value uint64) InsertResult
	// Lookup returns the value stored for key.
	Lookup(key uint64) (uint64, bool)
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) bool
	// Len returns the number of distinct live items, stash included.
	Len() int
	// Capacity returns the total slot count of the main table.
	Capacity() int
	// LoadRatio returns Len()/Capacity(), the paper's load metric.
	LoadRatio() float64
	// StashLen returns the current stash population.
	StashLen() int
	// Stats returns lifetime operation counts.
	Stats() Stats
}

// BatchStore is a Store with batched operations. Results always come back
// in input order. The Into variants write through caller-owned slices so a
// replay or serving loop can reuse its buffers across batches; the plain
// forms allocate fresh result slices per call.
//
// Only Sharded amortizes lock traffic across a batch (each touched shard's
// lock is taken once per batch); the other kinds execute batches as a
// plain loop over the point operations, so the batch forms are a uniform
// calling convention, not a speedup, there.
type BatchStore interface {
	Store
	// InsertBatch stores every keys[i]/values[i] pair. len(values) must
	// equal len(keys).
	InsertBatch(keys, values []uint64) []InsertResult
	// InsertBatchInto is InsertBatch writing outcomes into out, which must
	// be nil (discard outcomes) or exactly len(keys) long.
	InsertBatchInto(keys, values []uint64, out []InsertResult)
	// LookupBatch answers every key; values[i], found[i] correspond to
	// keys[i].
	LookupBatch(keys []uint64) (values []uint64, found []bool)
	// LookupBatchInto is LookupBatch writing answers into values and
	// found, each of which must be exactly len(keys) long.
	LookupBatchInto(keys []uint64, values []uint64, found []bool)
	// DeleteBatch removes every key; removed[i] reports whether keys[i]
	// was present.
	DeleteBatch(keys []uint64) (removed []bool)
	// DeleteBatchInto is DeleteBatch writing results into removed, which
	// must be nil (discard results) or exactly len(keys) long.
	DeleteBatchInto(keys []uint64, removed []bool)
}

// Every public table kind satisfies both interfaces.
var (
	_ Store = (*Table)(nil)
	_ Store = (*Blocked)(nil)
	_ Store = (*Concurrent)(nil)
	_ Store = (*Sharded)(nil)

	_ BatchStore = (*Table)(nil)
	_ BatchStore = (*Blocked)(nil)
	_ BatchStore = (*Concurrent)(nil)
	_ BatchStore = (*Sharded)(nil)
)
