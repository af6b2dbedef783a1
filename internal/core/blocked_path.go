package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// BlockedPathMove is one hop of a blocked-table cuckoo path: the item in
// (FromTable, FromBucket, FromSlot) gains a copy in slot ToSlot of its
// candidate bucket in ToTable.
type BlockedPathMove struct {
	Key        uint64
	FromTable  int
	FromBucket int
	FromSlot   int
	ToTable    int
	ToBucket   int
	ToSlot     int
}

// FindPath searches for a cuckoo path at slot granularity without mutating
// the table. Unlike Table.FindPath's breadth-first search it walks from a
// random candidate, extending through random unvisited buckets. Paths are
// bucket-disjoint. ok is false when no path within MaxLoop hops exists.
func (t *BlockedTable) FindPath(key uint64) ([]BlockedPathMove, bool) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	path := make([]BlockedPathMove, 0, 8)
	curTable := t.rng.IntN(t.cfg.D)
	curBucket := cand[curTable]
	curSlot := t.rng.IntN(t.cfg.Slots)
	visited := map[int]bool{t.bucketFlagIndex(curTable, curBucket): true}
	var cnt [8]uint64
	for hop := 0; hop < t.cfg.MaxLoop; hop++ {
		t.readBucketAccess(curTable, curBucket)
		victim := t.keys[t.slotIndex(curTable, curBucket, curSlot)]
		var vcand [hashutil.MaxD]int
		t.family.Indexes(victim, vcand[:])

		// A usable destination is any slot with counter != 1 in one of
		// the victim's other, unvisited candidate buckets.
		for j := 0; j < t.cfg.D; j++ {
			if j == curTable || visited[t.bucketFlagIndex(j, vcand[j])] {
				continue
			}
			t.bucketCounters(j, vcand[j], cnt[:t.cfg.Slots])
			for s := 0; s < t.cfg.Slots; s++ {
				if cnt[s] != 1 {
					path = append(path, BlockedPathMove{
						Key:       victim,
						FromTable: curTable, FromBucket: curBucket, FromSlot: curSlot,
						ToTable: j, ToBucket: vcand[j], ToSlot: s,
					})
					return path, true
				}
			}
		}
		// Extend through a random unvisited candidate bucket and slot.
		var opts [hashutil.MaxD]int
		nOpts := 0
		for j := 0; j < t.cfg.D; j++ {
			if j != curTable && !visited[t.bucketFlagIndex(j, vcand[j])] {
				opts[nOpts] = j
				nOpts++
			}
		}
		if nOpts == 0 {
			return nil, false
		}
		next := opts[t.rng.IntN(nOpts)]
		nextSlot := t.rng.IntN(t.cfg.Slots)
		path = append(path, BlockedPathMove{
			Key:       victim,
			FromTable: curTable, FromBucket: curBucket, FromSlot: curSlot,
			ToTable: next, ToBucket: vcand[next], ToSlot: nextSlot,
		})
		curTable, curBucket, curSlot = next, vcand[next], nextSlot
		visited[t.bucketFlagIndex(curTable, curBucket)] = true
	}
	return nil, false
}

// ApplyMove executes one blocked path hop (last hop first). The moved item
// briefly holds two mutually hinted copies — a state the blocked table
// represents natively, so invariants hold between moves.
func (t *BlockedTable) ApplyMove(m BlockedPathMove) error {
	destIdx := t.slotIndex(m.ToTable, m.ToBucket, m.ToSlot)
	destCnt := t.counters.Get(destIdx)
	t.meter.ReadOn(1)
	switch {
	case t.isFree(destCnt):
	case destCnt >= 2:
		t.overwriteVictim(m.ToTable, m.ToBucket, m.ToSlot, destCnt)
	default:
		return fmt.Errorf("core: blocked path destination (%d,%d,%d) holds a sole copy",
			m.ToTable, m.ToBucket, m.ToSlot)
	}
	srcIdx := t.slotIndex(m.FromTable, m.FromBucket, m.FromSlot)
	if t.keys[srcIdx] != m.Key {
		return fmt.Errorf("core: blocked path source changed: want key %#x, found %#x", m.Key, t.keys[srcIdx])
	}
	if c := t.counters.Get(srcIdx); c != 1 {
		return fmt.Errorf("core: blocked path mover %#x had counter %d, want 1", m.Key, c)
	}
	// Write the new copy with mutual hints and refresh the source's hints
	// to point at its sibling.
	var hints [4]int8
	for i := range hints {
		hints[i] = noSlot
	}
	hints[m.FromTable] = int8(m.FromSlot)
	hints[m.ToTable] = int8(m.ToSlot)
	t.writeSlot(destIdx, kv.Entry{Key: m.Key, Value: t.vals[srcIdx]}, hints)
	t.hints[srcIdx] = hints
	t.meter.WriteOff(1) // hint fix-up write on the source record
	t.setSlotCounter(m.FromTable, m.FromBucket, m.FromSlot, 2)
	t.setSlotCounter(m.ToTable, m.ToBucket, m.ToSlot, 2)
	t.copiesTotal++
	t.redundantWrites++
	return nil
}

// TryPlace attempts principle-based placement of key/value; done is false
// exactly on a real collision. First stage of the pathwise protocol.
func (t *BlockedTable) TryPlace(key, value uint64) (out kv.Outcome, done bool) {
	t.stats.Inserts++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	if !t.cfg.AssumeUniqueKeys {
		if out, handled := t.updateExisting(key, value, cand[:t.cfg.D]); handled {
			return out, true
		}
	}
	if copies := t.place(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D]); copies > 0 {
		t.size++
		return kv.Outcome{Status: kv.Placed}, true
	}
	return kv.Outcome{}, false
}

// StashOverflow sends key/value to the stash after a failed path search.
func (t *BlockedTable) StashOverflow(key, value uint64) kv.Outcome {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	return t.overflowInsert(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D], 0)
}

// FinishPath installs key/value into the slot the path head vacated (which
// now holds a redundant copy of the head's item).
func (t *BlockedTable) FinishPath(key, value uint64, head BlockedPathMove, pathLen int) kv.Outcome {
	t.overwriteVictim(head.FromTable, head.FromBucket, head.FromSlot, 2)
	var hints [4]int8
	for i := range hints {
		hints[i] = noSlot
	}
	hints[head.FromTable] = int8(head.FromSlot)
	t.writeSlot(t.slotIndex(head.FromTable, head.FromBucket, head.FromSlot),
		kv.Entry{Key: key, Value: value}, hints)
	t.setSlotCounter(head.FromTable, head.FromBucket, head.FromSlot, 1)
	t.copiesTotal++
	t.size++
	t.stats.Kicks += int64(pathLen)
	return kv.Outcome{Status: kv.Placed, Kicks: pathLen}
}

// InsertPathwise inserts via two-phase path execution, exactly as
// Table.InsertPathwise.
func (t *BlockedTable) InsertPathwise(key, value uint64) kv.Outcome {
	if out, done := t.TryPlace(key, value); done {
		return out
	}
	path, ok := t.FindPath(key)
	if !ok {
		return t.StashOverflow(key, value)
	}
	for i := len(path) - 1; i >= 0; i-- {
		if err := t.ApplyMove(path[i]); err != nil {
			panic(err)
		}
	}
	return t.FinishPath(key, value, path[0], len(path))
}
