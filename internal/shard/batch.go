package shard

import (
	"mccuckoo/internal/kv"
)

// Batched operations amortize lock traffic: keys are bucket-sorted by
// destination shard first, then each touched shard's lock is taken exactly
// once for the whole batch instead of once per key. Results come back in
// input order. Under contention this turns k lock acquisitions into at most
// min(k, NumShards()) and keeps every shard's critical section one
// contiguous run of its keys.
//
// The Into variants write results through caller-owned slices so a replay
// loop can reuse its buffers across batches; the plain forms allocate fresh
// result slices per call. The int32 working buffers come from a per-table
// sync.Pool, so steady-state batching performs no allocations of its own.

// Telemetry: when a sink is attached, every batched key is recorded as its
// own event (kind, outcome, off-chip accesses, shard) so the histograms and
// the flight recorder see batched traffic exactly like single-op traffic.
// Batched events carry Nanos == 0 — individual keys inside a batch are not
// timed, so they contribute to every histogram except latency.

// scratch returns a pooled buffer with capacity at least need.
//
//mcvet:hotpath
func (s *Sharded) scratch(need int) *[]int32 {
	p, _ := s.scratchPool.Get().(*[]int32)
	if p == nil || cap(*p) < need {
		b := make([]int32, need) //mcvet:allow hotpathalloc pool miss; amortized to zero allocations in steady state
		p = &b
	}
	return p
}

// groupByShard bucket-sorts the positions of keys by destination shard.
// order holds key positions grouped by shard; shard i owns positions
// order[start[i]:start[i+1]]. Both returned slices alias the pooled buffer,
// which the caller must release with scratchPool.Put when done.
//
//mcvet:hotpath
func (s *Sharded) groupByShard(keys []uint64, buf *[]int32) (order []int32, start []int32) {
	n := len(s.shards)
	// One backing array for all four working slices: order, per-key shard
	// ids, the n+1 prefix sums, and the n fill cursors.
	b := (*buf)[:2*len(keys)+2*n+1]
	order = b[:len(keys)]
	shardOf := b[len(keys) : 2*len(keys)]
	start = b[2*len(keys) : 2*len(keys)+n+1]
	next := b[2*len(keys)+n+1:]
	for i := range start {
		start[i] = 0
	}
	for i, k := range keys {
		sh := int32(s.shardIndex(k))
		shardOf[i] = sh
		start[sh+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	copy(next, start[:n])
	for i := range keys {
		sh := shardOf[i]
		order[next[sh]] = int32(i)
		next[sh]++
	}
	return order, start
}

// InsertBatch stores every keys[i]/values[i] pair, taking each touched
// shard's write lock once. The i-th outcome corresponds to the i-th key.
// len(values) must equal len(keys).
func (s *Sharded) InsertBatch(keys, values []uint64) []kv.Outcome {
	out := make([]kv.Outcome, len(keys))
	s.InsertBatchInto(keys, values, out)
	return out
}

// InsertBatchInto is InsertBatch writing outcomes into out, which must be
// nil (discard outcomes) or exactly len(keys) long.
//
//mcvet:hotpath
func (s *Sharded) InsertBatchInto(keys, values []uint64, out []kv.Outcome) {
	if len(keys) != len(values) {
		panic("shard: InsertBatch called with mismatched key/value lengths")
	}
	if out != nil && len(out) != len(keys) {
		panic("shard: InsertBatchInto outcome slice has wrong length")
	}
	if len(keys) == 0 {
		return
	}
	if len(keys) == 1 {
		si := s.shardIndex(keys[0])
		sh := &s.shards[si]
		sh.batchWriteOps.Add(1)
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		var before int64
		if s.sink != nil {
			before = offTotal(sh.tab.Meter())
		}
		o := sh.tab.Insert(keys[0], values[0])
		if s.sink != nil {
			off := offTotal(sh.tab.Meter()) - before
			sh.mu.Unlock()
			s.sink.RecordInsert(si, keys[0], o, off, 0)
		} else {
			sh.mu.Unlock()
		}
		if out != nil {
			out[0] = o
		}
		return
	}
	buf := s.scratch(2*len(keys) + 2*len(s.shards) + 1)
	order, start := s.groupByShard(keys, buf)
	for shi := range s.shards {
		lo, hi := start[shi], start[shi+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[shi]
		sh.batchWriteOps.Add(int64(hi - lo))
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		if s.sink == nil {
			for _, i := range order[lo:hi] {
				o := sh.tab.Insert(keys[i], values[i])
				if out != nil {
					out[i] = o
				}
			}
			sh.mu.Unlock()
			continue
		}
		//mcvet:allow lockdiscipline still locked here; the sink==nil branch above unlocks and continues
		m := sh.tab.Meter()
		for _, i := range order[lo:hi] {
			before := offTotal(m)
			//mcvet:allow lockdiscipline still locked here; the sink==nil branch above unlocks and continues
			o := sh.tab.Insert(keys[i], values[i])
			s.sink.RecordInsert(shi, keys[i], o, offTotal(m)-before, 0)
			if out != nil {
				out[i] = o
			}
		}
		sh.mu.Unlock()
	}
	s.scratchPool.Put(buf)
}

// LookupBatch answers every key, taking each touched shard's read lock
// once. values[i], found[i] correspond to keys[i].
func (s *Sharded) LookupBatch(keys []uint64) (values []uint64, found []bool) {
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	s.LookupBatchInto(keys, values, found)
	return values, found
}

// LookupBatchInto is LookupBatch writing answers into values and found,
// each of which must be exactly len(keys) long.
//
//mcvet:hotpath
func (s *Sharded) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	if len(values) != len(keys) || len(found) != len(keys) {
		panic("shard: LookupBatchInto result slices have wrong length")
	}
	if len(keys) == 0 {
		return
	}
	if len(keys) == 1 {
		si := s.shardIndex(keys[0])
		sh := &s.shards[si]
		sh.batchLookups.Add(1)
		sh.batchReadAcqs.Add(1)
		var off int64
		sh.mu.RLock()
		if s.sink != nil {
			values[0], found[0], off = sh.tab.LookupReadOnlyTraced(keys[0])
		} else {
			values[0], found[0] = sh.tab.LookupReadOnly(keys[0])
		}
		sh.mu.RUnlock()
		if found[0] {
			sh.hits.Add(1)
		}
		s.sink.RecordLookup(si, keys[0], found[0], off, 0)
		return
	}
	buf := s.scratch(2*len(keys) + 2*len(s.shards) + 1)
	order, start := s.groupByShard(keys, buf)
	for shi := range s.shards {
		lo, hi := start[shi], start[shi+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[shi]
		sh.batchLookups.Add(int64(hi - lo))
		sh.batchReadAcqs.Add(1)
		hits := int64(0)
		sh.mu.RLock()
		for _, i := range order[lo:hi] {
			if s.sink != nil {
				var off int64
				values[i], found[i], off = sh.tab.LookupReadOnlyTraced(keys[i])
				s.sink.RecordLookup(shi, keys[i], found[i], off, 0)
			} else {
				values[i], found[i] = sh.tab.LookupReadOnly(keys[i])
			}
			if found[i] {
				hits++
			}
		}
		sh.mu.RUnlock()
		sh.hits.Add(hits)
	}
	s.scratchPool.Put(buf)
}

// DeleteBatch removes every key, taking each touched shard's write lock
// once. removed[i] reports whether keys[i] was present.
func (s *Sharded) DeleteBatch(keys []uint64) (removed []bool) {
	removed = make([]bool, len(keys))
	s.DeleteBatchInto(keys, removed)
	return removed
}

// DeleteBatchInto is DeleteBatch writing results into removed, which must
// be nil (discard results) or exactly len(keys) long.
//
//mcvet:hotpath
func (s *Sharded) DeleteBatchInto(keys []uint64, removed []bool) {
	if removed != nil && len(removed) != len(keys) {
		panic("shard: DeleteBatchInto result slice has wrong length")
	}
	if len(keys) == 0 {
		return
	}
	if len(keys) == 1 {
		si := s.shardIndex(keys[0])
		sh := &s.shards[si]
		sh.batchWriteOps.Add(1)
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		var before int64
		if s.sink != nil {
			before = offTotal(sh.tab.Meter())
		}
		ok := sh.tab.Delete(keys[0])
		if s.sink != nil {
			off := offTotal(sh.tab.Meter()) - before
			sh.mu.Unlock()
			s.sink.RecordDelete(si, keys[0], ok, off, 0)
		} else {
			sh.mu.Unlock()
		}
		if removed != nil {
			removed[0] = ok
		}
		return
	}
	buf := s.scratch(2*len(keys) + 2*len(s.shards) + 1)
	order, start := s.groupByShard(keys, buf)
	for shi := range s.shards {
		lo, hi := start[shi], start[shi+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[shi]
		sh.batchWriteOps.Add(int64(hi - lo))
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		if s.sink == nil {
			for _, i := range order[lo:hi] {
				ok := sh.tab.Delete(keys[i])
				if removed != nil {
					removed[i] = ok
				}
			}
			sh.mu.Unlock()
			continue
		}
		//mcvet:allow lockdiscipline still locked here; the sink==nil branch above unlocks and continues
		m := sh.tab.Meter()
		for _, i := range order[lo:hi] {
			before := offTotal(m)
			//mcvet:allow lockdiscipline still locked here; the sink==nil branch above unlocks and continues
			ok := sh.tab.Delete(keys[i])
			s.sink.RecordDelete(shi, keys[i], ok, offTotal(m)-before, 0)
			if removed != nil {
				removed[i] = ok
			}
		}
		sh.mu.Unlock()
	}
	s.scratchPool.Put(buf)
}
