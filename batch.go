package mccuckoo

import (
	"sync"

	"mccuckoo/internal/kv"
)

// Batched operations for the non-sharded kinds, and the Into variants for
// Sharded. The non-sharded kinds execute a batch as a loop over the point
// operations — there is no lock to amortize on a Table or Blocked, and
// Concurrent takes its table-wide lock per element so readers keep
// interleaving mid-batch. The value of these methods is the uniform
// BatchStore contract: a consumer written against BatchStore drives all
// four kinds (and the network client) without per-kind switches.
//
// Argument validation matches internal/shard: mismatched key/value lengths
// and wrongly sized result slices panic, nil out/removed slices discard
// results, and a nil values/found pair on LookupBatchInto is rejected
// because a lookup with no destination answers nothing.

// insertBatchInto loops a store's Insert over the batch.
func insertBatchInto(s Store, keys, values []uint64, out []InsertResult) {
	if len(keys) != len(values) {
		panic("mccuckoo: batch insert called with mismatched key/value lengths")
	}
	if out != nil && len(out) != len(keys) {
		panic("mccuckoo: batch result slice has wrong length")
	}
	for i, k := range keys {
		r := s.Insert(k, values[i])
		if out != nil {
			out[i] = r
		}
	}
}

// lookupBatchInto loops a store's Lookup over the batch.
func lookupBatchInto(s Store, keys, values []uint64, found []bool) {
	if len(values) != len(keys) || len(found) != len(keys) {
		panic("mccuckoo: batch lookup result slices have wrong length")
	}
	for i, k := range keys {
		values[i], found[i] = s.Lookup(k)
	}
}

// deleteBatchInto loops a store's Delete over the batch.
func deleteBatchInto(s Store, keys []uint64, removed []bool) {
	if removed != nil && len(removed) != len(keys) {
		panic("mccuckoo: batch result slice has wrong length")
	}
	for i, k := range keys {
		ok := s.Delete(k)
		if removed != nil {
			removed[i] = ok
		}
	}
}

// insertBatch allocates the result slice and loops.
func insertBatch(s Store, keys, values []uint64) []InsertResult {
	out := make([]InsertResult, len(keys))
	insertBatchInto(s, keys, values, out)
	return out
}

// lookupBatch allocates the result slices and loops.
func lookupBatch(s Store, keys []uint64) ([]uint64, []bool) {
	values := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	lookupBatchInto(s, keys, values, found)
	return values, found
}

// deleteBatch allocates the result slice and loops.
func deleteBatch(s Store, keys []uint64) []bool {
	removed := make([]bool, len(keys))
	deleteBatchInto(s, keys, removed)
	return removed
}

// InsertBatch stores every keys[i]/values[i] pair, one Insert at a time.
// Results come back in input order. len(values) must equal len(keys).
func (t *single[E]) InsertBatch(keys, values []uint64) []InsertResult {
	return insertBatch(t, keys, values)
}

// InsertBatchInto is InsertBatch writing outcomes into out, which must be
// nil (discard outcomes) or exactly len(keys) long.
func (t *single[E]) InsertBatchInto(keys, values []uint64, out []InsertResult) {
	insertBatchInto(t, keys, values, out)
}

// LookupBatch answers every key. values[i], found[i] correspond to keys[i].
func (t *single[E]) LookupBatch(keys []uint64) (values []uint64, found []bool) {
	return lookupBatch(t, keys)
}

// LookupBatchInto is LookupBatch writing answers into values and found,
// each of which must be exactly len(keys) long.
func (t *single[E]) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	lookupBatchInto(t, keys, values, found)
}

// DeleteBatch removes every key. removed[i] reports whether keys[i] was
// present.
func (t *single[E]) DeleteBatch(keys []uint64) (removed []bool) {
	return deleteBatch(t, keys)
}

// DeleteBatchInto is DeleteBatch writing results into removed, which must
// be nil (discard results) or exactly len(keys) long.
func (t *single[E]) DeleteBatchInto(keys []uint64, removed []bool) {
	deleteBatchInto(t, keys, removed)
}

// InsertBatch stores every keys[i]/values[i] pair under the write lock,
// taken once per element so readers (and other writers) interleave
// mid-batch.
func (c *Concurrent) InsertBatch(keys, values []uint64) []InsertResult {
	return insertBatch(c, keys, values)
}

// InsertBatchInto is InsertBatch writing outcomes into out, which must be
// nil (discard outcomes) or exactly len(keys) long.
func (c *Concurrent) InsertBatchInto(keys, values []uint64, out []InsertResult) {
	insertBatchInto(c, keys, values, out)
}

// LookupBatch answers every key under the shared read lock, taken once per
// element. values[i], found[i] correspond to keys[i].
func (c *Concurrent) LookupBatch(keys []uint64) (values []uint64, found []bool) {
	return lookupBatch(c, keys)
}

// LookupBatchInto is LookupBatch writing answers into values and found,
// each of which must be exactly len(keys) long.
func (c *Concurrent) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	lookupBatchInto(c, keys, values, found)
}

// DeleteBatch removes every key under the write lock, taken once per
// element. removed[i] reports whether keys[i] was present.
func (c *Concurrent) DeleteBatch(keys []uint64) (removed []bool) {
	return deleteBatch(c, keys)
}

// DeleteBatchInto is DeleteBatch writing results into removed, which must
// be nil (discard results) or exactly len(keys) long.
func (c *Concurrent) DeleteBatchInto(keys []uint64, removed []bool) {
	deleteBatchInto(c, keys, removed)
}

// outcomeScratch pools the kv.Outcome buffers Sharded.InsertBatchInto uses
// to translate internal outcomes into public InsertResults without a fresh
// allocation per batch.
var outcomeScratch sync.Pool

// InsertBatchInto is Sharded.InsertBatch writing outcomes into out, which
// must be nil (discard outcomes) or exactly len(keys) long. Like the other
// Into variants it performs no allocation of its own in steady state; the
// shard grouping buffers and the outcome translation buffer are pooled.
func (s *Sharded) InsertBatchInto(keys, values []uint64, out []InsertResult) {
	if out == nil {
		s.inner.InsertBatchInto(keys, values, nil)
		return
	}
	if len(out) != len(keys) {
		panic("mccuckoo: batch result slice has wrong length")
	}
	buf, _ := outcomeScratch.Get().(*[]kv.Outcome)
	if buf == nil || cap(*buf) < len(keys) {
		b := make([]kv.Outcome, len(keys))
		buf = &b
	}
	oc := (*buf)[:len(keys)]
	s.inner.InsertBatchInto(keys, values, oc)
	for i, o := range oc {
		out[i] = fromOutcome(o)
	}
	outcomeScratch.Put(buf)
}

// LookupBatchInto is Sharded.LookupBatch writing answers into values and
// found, each of which must be exactly len(keys) long. Each touched
// shard's read lock is taken once.
func (s *Sharded) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	s.inner.LookupBatchInto(keys, values, found)
}

// DeleteBatchInto is Sharded.DeleteBatch writing results into removed,
// which must be nil (discard results) or exactly len(keys) long. Each
// touched shard's write lock is taken once.
func (s *Sharded) DeleteBatchInto(keys []uint64, removed []bool) {
	s.inner.DeleteBatchInto(keys, removed)
}
