package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// PathMove is one hop of a cuckoo path: the item currently in (FromTable,
// FromBucket) gains a copy in (ToTable, ToBucket) — its own candidate bucket
// in another subtable — after which its FromBucket copy becomes redundant
// and can be overwritten by the previous hop's item.
type PathMove struct {
	Key        uint64
	FromTable  int
	FromBucket int
	ToTable    int
	ToBucket   int
}

// bfsNode is one bucket of the breadth-first path search: its occupant, a
// sole copy, would move one hop along the path.
type bfsNode struct {
	bucket int
	table  int32
	parent int32 // index of the node whose occupant would move in; -1 for key's candidates
}

// FindPath searches for a cuckoo path that frees one of key's candidate
// buckets without mutating the table (§III.H: MemC3 introduced cuckoo-path
// insertion but "did not develop efficient method to quickly find one";
// McCuckoo's counters do exactly that — a path may end at any bucket whose
// counter is not 1, i.e. free or redundantly occupied).
//
// The search is breadth-first over the eviction graph, starting from key's
// d candidates, so the path found is a shortest one. Expanding a bucket
// costs one off-chip read to learn its occupant, one hash of the occupant,
// and d−1 on-chip counter reads of the occupant's other candidates; the
// search stops at the first of those whose counter is not 1. MaxLoop bounds
// the buckets expanded. The search uses no randomness.
//
// FindPath expects a real collision — every candidate of key holds a sole
// copy, as when TryPlace reports done == false. The returned path is ordered
// from key's bucket outward: path[0] moves the item that currently blocks
// key, path[len-1] ends in a usable bucket. Paths are bucket-disjoint. ok is
// false when no path within MaxLoop expansions exists; the caller should
// stash key. The path's backing array is scratch owned by the table and is
// overwritten by the next search. FindPath changes no bucket or counter,
// only the writer-owned search scratch and meter (expanded buckets are
// charged), so readers of the table may run alongside it.
func (t *Table) FindPath(key uint64) ([]PathMove, bool) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	return t.findPath(cand[:t.cfg.D])
}

// findPath is FindPath over key's precomputed candidates. Its queue and path
// buffers belong to the table and only grow, so once they have reached the
// largest search seen a search allocates nothing.
//
// The queue keeps no visited set, yet every path it returns is
// bucket-disjoint. Expanding a bucket always yields the same children, and
// the queue is expanded in order of depth. If the returned chain held one
// bucket twice, or a bucket also queued at a smaller depth, the chain from
// that shallower copy would reach a copy of the last node at a smaller
// depth. That copy would have been expanded first and found the same usable
// bucket, since nothing changes during the search.
//
//mcvet:hotpath
func (t *Table) findPath(cand []int) ([]PathMove, bool) {
	d := t.cfg.D
	nodes := t.bfsQueue[:0]
	for i, b := range cand {
		nodes = append(nodes, bfsNode{bucket: b, table: int32(i), parent: -1}) //mcvet:allow hotpathalloc the table-owned queue grows to the largest search once, then is reused
	}
	for head := 0; head < len(nodes) && head < t.cfg.MaxLoop; head++ {
		from, fromBucket := int(nodes[head].table), nodes[head].bucket
		var vcand [hashutil.MaxD]int
		t.family.Indexes(t.readBucket(from, fromBucket), vcand[:])
		for j := 0; j < d; j++ {
			if j == from {
				continue
			}
			if t.counterAt(j, vcand[j]) != 1 {
				t.bfsQueue = nodes
				return t.tracePath(nodes, head, j, vcand[j]), true
			}
			nodes = append(nodes, bfsNode{bucket: vcand[j], table: int32(j), parent: int32(head)}) //mcvet:allow hotpathalloc the table-owned queue grows to the largest search once, then is reused
		}
	}
	t.bfsQueue = nodes
	return nil, false
}

// tracePath writes the path from key's candidate down to node last, whose
// occupant moves into the usable bucket (table, bucket), into the table's
// path buffer. The movers' keys come from buckets the search already read
// and paid for, so they are not charged again.
//
//mcvet:hotpath
func (t *Table) tracePath(nodes []bfsNode, last, table, bucket int) []PathMove {
	hops := 0
	for i := last; i >= 0; i = int(nodes[i].parent) {
		hops++
	}
	if cap(t.bfsPath) < hops {
		t.bfsPath = make([]PathMove, max(hops, 16)) //mcvet:allow hotpathalloc the table-owned path buffer grows to the longest path once, then is reused
	}
	path := t.bfsPath[:hops]
	for i, k := last, hops-1; i >= 0; i, k = int(nodes[i].parent), k-1 {
		from, fromBucket := int(nodes[i].table), nodes[i].bucket
		path[k] = PathMove{
			Key:       t.cells[t.bucketIndex(from, fromBucket)].Key,
			FromTable: from, FromBucket: fromBucket,
			ToTable: table, ToBucket: bucket,
		}
		table, bucket = from, fromBucket
	}
	return path
}

// ApplyMove executes one path hop, last hop first. The move copies the
// item into its destination bucket and updates counters; the item briefly
// has one copy more than before — a state McCuckoo represents natively, so
// the table satisfies all invariants between moves and readers never lose
// an item. The destination must be usable (counter != 1), which holds for
// the final hop by construction and for earlier hops because the later
// item's departure left a redundant copy behind.
func (t *Table) ApplyMove(m PathMove) error {
	destCnt := t.counterAt(m.ToTable, m.ToBucket)
	switch {
	case t.isFree(destCnt):
		// Plain copy into an empty bucket.
	case destCnt >= 2:
		// Overwrite a redundant copy of the destination's occupant.
		occKey := t.readBucket(m.ToTable, m.ToBucket)
		t.victimLostCopy(occKey, m.ToTable, destCnt)
	default:
		return fmt.Errorf("core: path move destination (%d,%d) holds a sole copy", m.ToTable, m.ToBucket)
	}
	// Verify the mover is still where the path found it (it must be:
	// the single-writer contract means nothing else mutates).
	src := t.readEntry(m.FromTable, m.FromBucket)
	if src.Key != m.Key {
		return fmt.Errorf("core: path move source changed: want key %#x, found %#x", m.Key, src.Key)
	}
	srcCnt := t.counterAt(m.FromTable, m.FromBucket)
	t.writeBucket(m.ToTable, m.ToBucket, src)
	// The mover now has one more copy; raise the counters of all its
	// copies. Its copies are exactly the buckets the path knows about
	// plus any pre-existing ones — but path moves only ever displace
	// sole copies (counter 1), so the mover's copies are FromBucket and
	// ToBucket.
	if srcCnt != 1 {
		return fmt.Errorf("core: path mover %#x had counter %d, want 1", m.Key, srcCnt)
	}
	t.setCounter(m.FromTable, m.FromBucket, 2)
	t.setCounter(m.ToTable, m.ToBucket, 2)
	t.copiesTotal++
	t.redundantWrites++
	return nil
}

// TryPlace attempts principle-based placement (or an in-place update) of
// key/value. done is false exactly when a real collision occurred and a
// cuckoo path is needed. First stage of the pathwise insertion protocol.
func (t *Table) TryPlace(key, value uint64) (out kv.Outcome, done bool) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	return t.tryPlace(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D])
}

// tryPlace is TryPlace over e's precomputed candidates.
//
//mcvet:hotpath
func (t *Table) tryPlace(e kv.Entry, cand []int) (out kv.Outcome, done bool) {
	t.stats.Inserts++
	if !t.cfg.AssumeUniqueKeys {
		if out, handled := t.updateExisting(e.Key, e.Value, cand); handled {
			return out, true
		}
	}
	if copies := t.place(e, cand); copies > 0 {
		t.size++
		return kv.Outcome{Status: kv.Placed}, true
	}
	return kv.Outcome{}, false
}

// StashOverflow sends key/value to the stash after a failed path search.
// Final stage of the pathwise protocol on the failure branch.
func (t *Table) StashOverflow(key, value uint64) kv.Outcome {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	return t.overflowInsert(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D], 0)
}

// FinishPath installs key/value into the candidate bucket the path head
// vacated. After every ApplyMove has executed, the head's item has exactly
// two copies, in head's From and To buckets, so its surviving copy is known
// without hashing or reading: only that counter drops back to 1. Final stage
// of the pathwise protocol on the success branch.
func (t *Table) FinishPath(key, value uint64, head PathMove, pathLen int) kv.Outcome {
	t.setCounter(head.ToTable, head.ToBucket, 1)
	t.writeBucket(head.FromTable, head.FromBucket, kv.Entry{Key: key, Value: value})
	t.setCounter(head.FromTable, head.FromBucket, 1)
	t.size++
	t.stats.Kicks += int64(pathLen)
	return kv.Outcome{Status: kv.Placed, Kicks: pathLen}
}

// InsertPathwise inserts key/value using two-phase cuckoo-path execution:
// the path is discovered first by FindPath's breadth-first search, then
// executed from its far end backwards, so the table is a valid McCuckoo
// table after every step. Insert does exactly this under the BFS policy;
// InsertPathwise does it under any policy, and Concurrent.InsertPathwise
// runs the same stages with the write lock released between moves.
func (t *Table) InsertPathwise(key, value uint64) kv.Outcome {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	e := kv.Entry{Key: key, Value: value}
	if out, done := t.tryPlace(e, cand[:t.cfg.D]); done {
		return out
	}
	return t.insertAlongPath(e, cand[:t.cfg.D])
}

// insertAlongPath resolves a real collision by FindPath, ApplyMove from the
// path's far end back to its head, and FinishPath; with no path within
// MaxLoop expansions, e goes to the stash.
//
//mcvet:hotpath
func (t *Table) insertAlongPath(e kv.Entry, cand []int) kv.Outcome {
	path, ok := t.findPath(cand)
	if !ok {
		return t.overflowInsert(e, cand, 0)
	}
	for i := len(path) - 1; i >= 0; i-- {
		if err := t.ApplyMove(path[i]); err != nil {
			// Unreachable under the single-writer contract; fail
			// loudly rather than corrupt the table.
			panic(err)
		}
	}
	return t.FinishPath(e.Key, e.Value, path[0], len(path))
}
