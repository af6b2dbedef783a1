package core

import (
	"fmt"
	"math/rand/v2"

	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/stash"
)

// noSlot marks an absent copy in a slot-hint entry.
const noSlot = int8(-1)

// BlockedTable is the multi-slot McCuckoo (B-McCuckoo): d hash functions,
// l slots per bucket, one on-chip counter per slot (Fig. 5). Reading a
// bucket fetches all its slots in one off-chip access; writing updates one
// slot.
//
// Each stored copy carries slot hints: for every other subtable, the slot
// index its sibling copy occupies there ((d-1)·log2(l) bits per slot in the
// paper). Hints let the table update a victim's surviving copies without
// searching their buckets; overwrites therefore also rewrite the survivors'
// hint fields (off-chip writes, counted — see DESIGN.md §6).
type BlockedTable struct {
	cfg    Config
	family *hashutil.Family
	meter  memmodel.Meter
	rng    *rand.Rand

	// Flat slot storage: index = (table*n + bucket)*l + slot.
	keys  []uint64
	vals  []uint64
	hints [][4]int8 // hints[idx][j] = slot of the copy in subtable j, noSlot if none

	// counters holds one entry per slot; flags one bit per *bucket*
	// (pre-screening is done at bucket level, §III.G). Both carry the
	// same write discipline as the single-slot table's arrays.
	//
	//mcvet:restricted counters
	counters     *bitpack.Counters
	tombstoneVal uint64
	//mcvet:restricted flags
	flags *bitpack.Bitset
	// kickCounts backs the MinCounter resolver, one per bucket.
	//
	//mcvet:restricted kickcounts
	kickCounts *bitpack.Counters
	// pathBuf and pathVisited are FindPath's scratch, reused across
	// searches so a steady-state pathwise insert allocates nothing.
	pathBuf     []BlockedPathMove
	pathVisited []int

	overflow   *stash.Stash
	deletedAny bool

	size            int
	copiesTotal     int
	redundantWrites int64
	stats           kv.Stats
	// growing guards the auto-grow policy against re-entry while Grow's
	// own reinsertions stash items.
	growing bool
}

// NewBlocked creates a blocked McCuckoo table. cfg.Slots defaults to 3.
//
//mcvet:setter counters flags kickcounts
func NewBlocked(cfg Config) (*BlockedTable, error) {
	if err := cfg.normalize(true); err != nil {
		return nil, err
	}
	family, err := newFamily(cfg)
	if err != nil {
		return nil, err
	}
	slots := cfg.D * cfg.BucketsPerTable * cfg.Slots
	counters, err := bitpack.NewCounters(slots, cfg.counterWidth())
	if err != nil {
		return nil, err
	}
	flags, err := bitpack.NewBitset(cfg.D * cfg.BucketsPerTable)
	if err != nil {
		return nil, err
	}
	keys, vals, hints := newSlotArrays(slots)
	t := &BlockedTable{
		cfg:      cfg,
		family:   family,
		rng:      rand.New(rand.NewPCG(cfg.Seed, hashutil.Mix64(cfg.Seed+3))),
		keys:     keys,
		vals:     vals,
		hints:    hints,
		counters: counters,
		flags:    flags,
	}
	if cfg.Deletion == Tombstone {
		t.tombstoneVal = uint64(cfg.D) + 1
	}
	if cfg.Policy == kv.MinCounter {
		t.kickCounts, err = bitpack.NewCounters(cfg.D*cfg.BucketsPerTable, 5)
		if err != nil {
			return nil, err
		}
	}
	if cfg.StashEnabled {
		t.overflow, err = stash.New(4, cfg.StashMax, cfg.Seed, &t.meter)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newSlotArrays makes the off-chip slot arrays of a table with the given
// number of slots, advised for huge pages, with every hint empty.
func newSlotArrays(slots int) (keys, vals []uint64, hints [][4]int8) {
	keys, vals, hints = make([]uint64, slots), make([]uint64, slots), make([][4]int8, slots)
	adviseHugePages(keys)
	adviseHugePages(vals)
	adviseHugePages(hints)
	for i := range hints {
		hints[i] = [4]int8{noSlot, noSlot, noSlot, noSlot}
	}
	return keys, vals, hints
}

// slotIndex returns the flat index of (table, bucket, slot).
//
//mcvet:hotpath
func (t *BlockedTable) slotIndex(table, bucket, slot int) int {
	return (table*t.cfg.BucketsPerTable+bucket)*t.cfg.Slots + slot
}

// bucketFlagIndex returns the flat per-bucket flag index.
//
//mcvet:hotpath
func (t *BlockedTable) bucketFlagIndex(table, bucket int) int {
	return table*t.cfg.BucketsPerTable + bucket
}

// bucketCounters reads the l counters of one candidate bucket, charging a
// single on-chip access (the counters of a bucket are co-located in one
// SRAM word).
//
//mcvet:hotpath
func (t *BlockedTable) bucketCounters(table, bucket int, dst []uint64) {
	t.meter.ReadOn(1)
	base := t.slotIndex(table, bucket, 0)
	for s := 0; s < t.cfg.Slots; s++ {
		dst[s] = t.counters.Get(base + s)
	}
}

// setSlotCounter writes one slot counter, charging the on-chip access.
//
//mcvet:hotpath
//mcvet:setter counters
func (t *BlockedTable) setSlotCounter(table, bucket, slot int, v uint64) {
	t.meter.WriteOn(1)
	t.counters.Set(t.slotIndex(table, bucket, slot), v)
}

//mcvet:hotpath
func (t *BlockedTable) isFree(counter uint64) bool {
	return counter == 0 || (t.tombstoneVal != 0 && counter == t.tombstoneVal)
}

// readBucketAccess charges one off-chip read for fetching a whole bucket
// (all slots plus the stash flag).
//
//mcvet:hotpath
func (t *BlockedTable) readBucketAccess(table, bucket int) (flag bool) {
	t.meter.ReadOff(1)
	return t.flags.Get(t.bucketFlagIndex(table, bucket))
}

// writeSlot stores an entry with hints into one slot, charging one off-chip
// write.
//
//mcvet:hotpath
func (t *BlockedTable) writeSlot(idx int, e kv.Entry, hints [4]int8) {
	t.meter.WriteOff(1)
	t.keys[idx] = e.Key
	t.vals[idx] = e.Value
	t.hints[idx] = hints
}

// setStashFlag raises the bucket-level stash flag fi, charging the off-chip
// write only on an actual 0→1 transition; the sanctioned flags mutation on
// the insert side.
//
//mcvet:hotpath
//mcvet:setter flags
func (t *BlockedTable) setStashFlag(fi int) {
	if !t.flags.Get(fi) {
		t.flags.Set(fi)
		t.meter.WriteOff(1)
	}
}

// clearStashFlag lowers the bucket-level stash flag fi, charging the
// off-chip write only on an actual 1→0 transition. Restricted to refresh
// and rebuild paths: premature clears create stash false negatives.
//
//mcvet:setter flags
func (t *BlockedTable) clearStashFlag(fi int) {
	if t.flags.Get(fi) {
		t.flags.Clear(fi)
		t.meter.WriteOff(1)
	}
}

// Len returns the number of distinct live items, stash included.
func (t *BlockedTable) Len() int { return t.size + t.StashLen() }

// Capacity returns the total number of slots.
func (t *BlockedTable) Capacity() int { return t.cfg.D * t.cfg.BucketsPerTable * t.cfg.Slots }

// LoadRatio returns distinct items over total slots.
func (t *BlockedTable) LoadRatio() float64 { return float64(t.Len()) / float64(t.Capacity()) }

// Meter exposes the memory-traffic counters.
func (t *BlockedTable) Meter() *memmodel.Meter { return &t.meter }

// Stats exposes lifetime operation counts.
func (t *BlockedTable) Stats() kv.Stats { return t.stats }

// StashLen returns the current stash population.
func (t *BlockedTable) StashLen() int {
	if t.overflow == nil {
		return 0
	}
	return t.overflow.Len()
}

// Copies returns the number of live physical copies in the main table.
func (t *BlockedTable) Copies() int { return t.copiesTotal }

// RedundantWrites returns the lifetime count of proactive redundant copy
// writes.
func (t *BlockedTable) RedundantWrites() int64 { return t.redundantWrites }

// OnChipBytes returns the size of the on-chip counter array.
func (t *BlockedTable) OnChipBytes() int { return t.counters.SizeBytes() }

// Insert stores key/value following Algorithm 1: occupy one free slot in
// every candidate bucket, then overwrite slots whose items keep a two-copy
// lead, in decreasing counter order; when all d·l candidate slot counters
// are 1, fall back to the counter-guided random walk.
//
//mcvet:hotpath
func (t *BlockedTable) Insert(key, value uint64) kv.Outcome {
	t.stats.Inserts++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	if !t.cfg.AssumeUniqueKeys {
		if out, done := t.updateExisting(key, value, cand[:t.cfg.D]); done {
			return out
		}
	}
	if copies := t.place(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D]); copies > 0 {
		t.size++
		return kv.Outcome{Status: kv.Placed}
	}
	return t.resolveCollision(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D])
}

// updateExisting updates all copies of an existing key in place.
//
//mcvet:hotpath
func (t *BlockedTable) updateExisting(key, value uint64, cand []int) (kv.Outcome, bool) {
	if st := t.scanBuckets(key, cand); st.foundTable >= 0 {
		table, slot := st.foundTable, st.foundSlot
		idx := t.slotIndex(table, cand[table], slot)
		hints := t.hints[idx]
		hints[table] = int8(slot)
		for j := 0; j < t.cfg.D; j++ {
			if hints[j] == noSlot {
				continue
			}
			jidx := t.slotIndex(j, cand[j], int(hints[j]))
			t.vals[jidx] = value
			t.meter.WriteOff(1)
		}
		t.stats.Updates++
		return kv.Outcome{Status: kv.Updated}, true
	}
	if t.overflow != nil && t.overflow.Len() > 0 {
		if _, ok := t.overflow.Lookup(key); ok {
			t.overflow.Insert(key, value)
			t.stats.Updates++
			return kv.Outcome{Status: kv.Updated}, true
		}
	}
	return kv.Outcome{}, false
}

// place applies the insertion principles at slot granularity. Returns the
// number of copies placed, 0 on a real collision. As in the single-slot
// table, taken slots get their counters set to the running copy count
// immediately so they can never be mistaken for overwritable victims.
//
//mcvet:hotpath
func (t *BlockedTable) place(e kv.Entry, cand []int) int {
	d, l := t.cfg.D, t.cfg.Slots
	var ownedSlot [hashutil.MaxD]int8
	for i := range ownedSlot {
		ownedSlot[i] = noSlot
	}
	copies := 0
	var cnt [8]uint64

	// Pass 1: one free slot per candidate bucket.
	for i := 0; i < d; i++ {
		t.bucketCounters(i, cand[i], cnt[:l])
		for s := 0; s < l; s++ {
			if t.isFree(cnt[s]) {
				copies++
				ownedSlot[i] = int8(s)
				t.setSlotCounter(i, cand[i], s, uint64(copies))
				break
			}
		}
	}

	// Pass 2: overwrite redundant copies while the victim keeps a
	// two-copy lead, scanning for the currently largest slot counter
	// among buckets we do not own yet (fresh reads each round: an
	// earlier overwrite may have decremented a later candidate).
	for {
		bestTable, bestSlot, bestV := -1, -1, uint64(0)
		for i := 0; i < d; i++ {
			if ownedSlot[i] != noSlot {
				continue
			}
			t.bucketCounters(i, cand[i], cnt[:l])
			for s := 0; s < l; s++ {
				if v := cnt[s]; !t.isFree(v) && v > bestV {
					bestTable, bestSlot, bestV = i, s, v
				}
			}
		}
		if bestTable < 0 || bestV < uint64(copies)+2 {
			break
		}
		t.overwriteVictim(bestTable, cand[bestTable], bestSlot, bestV)
		copies++
		ownedSlot[bestTable] = int8(bestSlot)
		t.setSlotCounter(bestTable, cand[bestTable], bestSlot, uint64(copies))
	}

	if copies == 0 {
		return 0
	}
	t.commitPlacement(e, cand, ownedSlot[:d], copies)
	return copies
}

// commitPlacement writes the item's copies with mutual slot hints and
// raises their counters to the final copy count.
//
//mcvet:hotpath
func (t *BlockedTable) commitPlacement(e kv.Entry, cand []int, ownedSlot []int8, copies int) {
	var hints [4]int8
	for i := range hints {
		hints[i] = noSlot
	}
	for i, s := range ownedSlot {
		if s != noSlot {
			hints[i] = s
		}
	}
	for i, s := range ownedSlot {
		if s == noSlot {
			continue
		}
		t.writeSlot(t.slotIndex(i, cand[i], int(s)), e, hints)
		t.setSlotCounter(i, cand[i], int(s), uint64(copies))
	}
	t.copiesTotal += copies
	t.redundantWrites += int64(copies - 1)
}

// overwriteVictim evicts the redundant copy in (table, bucket, slot) whose
// item has v copies: the victim's surviving copies (located via the stored
// hints, one bucket read to fetch them) get decremented counters and their
// hint entry for this subtable cleared (one off-chip write each).
//
//mcvet:hotpath
func (t *BlockedTable) overwriteVictim(table, bucket, slot int, v uint64) {
	t.readBucketAccess(table, bucket)
	idx := t.slotIndex(table, bucket, slot)
	victimKey := t.keys[idx]
	hints := t.hints[idx]

	var vcand [hashutil.MaxD]int
	t.family.Indexes(victimKey, vcand[:])
	survivors := 0
	for j := 0; j < t.cfg.D; j++ {
		if j == table || hints[j] == noSlot {
			continue
		}
		jSlot := int(hints[j])
		jidx := t.slotIndex(j, vcand[j], jSlot)
		if t.keys[jidx] != victimKey {
			panic(fmt.Sprintf("core: stale hint: victim %#x not at (%d,%d,%d)", victimKey, j, vcand[j], jSlot))
		}
		t.setSlotCounter(j, vcand[j], jSlot, v-1)
		// Hint fix-up: the survivor no longer has a sibling here.
		t.hints[jidx][table] = noSlot
		t.meter.WriteOff(1)
		survivors++
	}
	if survivors != int(v)-1 {
		panic(fmt.Sprintf("core: victim %#x with counter %d had %d survivors", victimKey, v, survivors))
	}
	t.copiesTotal--
}

// resolveCollision runs the random walk at slot granularity.
//
//mcvet:hotpath
func (t *BlockedTable) resolveCollision(e kv.Entry, cand []int) kv.Outcome {
	cur := e
	var curCand [hashutil.MaxD]int
	copy(curCand[:], cand)
	prevTable := -1
	kicks := 0
	for {
		if kicks >= t.cfg.MaxLoop {
			t.stats.Kicks += int64(kicks)
			return t.overflowInsert(cur, curCand[:t.cfg.D], kicks)
		}
		r := t.pickVictimBucket(curCand[:t.cfg.D], prevTable)
		s := t.rng.IntN(t.cfg.Slots)
		t.readBucketAccess(r, curCand[r])
		idx := t.slotIndex(r, curCand[r], s)
		victim := kv.Entry{Key: t.keys[idx], Value: t.vals[idx]}
		// Victims in a real collision are sole copies (all candidate
		// slot counters are 1), so no sibling bookkeeping is needed.
		var hints [4]int8
		for i := range hints {
			hints[i] = noSlot
		}
		hints[r] = int8(s)
		t.writeSlot(idx, cur, hints)
		kicks++
		cur = victim
		prevTable = r
		t.family.Indexes(cur.Key, curCand[:])
		if copies := t.place(cur, curCand[:t.cfg.D]); copies > 0 {
			t.size++
			t.stats.Kicks += int64(kicks)
			return kv.Outcome{Status: kv.Placed, Kicks: kicks}
		}
	}
}

// pickVictimBucket chooses the candidate bucket to evict from during the
// random walk, honouring the configured kick policy.
//
//mcvet:hotpath
//mcvet:setter kickcounts
func (t *BlockedTable) pickVictimBucket(cand []int, prevTable int) int {
	if t.kickCounts != nil {
		best, bestCount := -1, uint64(1<<62)
		for i := range cand {
			if i == prevTable {
				continue
			}
			t.meter.ReadOn(1)
			c := t.kickCounts.Get(t.bucketFlagIndex(i, cand[i]))
			if c < bestCount || (c == bestCount && t.rng.IntN(2) == 0) {
				best, bestCount = i, c
			}
		}
		bi := t.bucketFlagIndex(best, cand[best])
		if v := t.kickCounts.Get(bi); v < t.kickCounts.Max() {
			t.kickCounts.Set(bi, v+1)
			t.meter.WriteOn(1)
		}
		return best
	}
	for {
		i := t.rng.IntN(t.cfg.D)
		if i != prevTable {
			return i
		}
	}
}

// overflowInsert stores the unplaceable item into the stash and sets the
// bucket-level stash flags of its candidates.
func (t *BlockedTable) overflowInsert(cur kv.Entry, cand []int, kicks int) kv.Outcome {
	if t.overflow == nil || !t.overflow.Insert(cur.Key, cur.Value) {
		t.stats.Failures++
		return kv.Outcome{Status: kv.Failed, Kicks: kicks}
	}
	for i := 0; i < t.cfg.D; i++ {
		t.setStashFlag(t.bucketFlagIndex(i, cand[i]))
	}
	t.stats.Stashed++
	t.maybeAutoGrow()
	return kv.Outcome{Status: kv.Stashed, Kicks: kicks}
}

// blockedScan carries what a candidate-bucket scan learned, for the stash
// pre-screen.
type blockedScan struct {
	foundTable int
	foundSlot  int
	readAny    bool
	flagAnd    bool
	earlyMiss  bool // an all-zero bucket proved the key was never inserted
}

//mcvet:hotpath
func (t *BlockedTable) rule1Active() bool {
	return t.cfg.Deletion == Tombstone || !t.deletedAny
}

// scanBuckets implements Algorithm 2's main-table walk: a candidate bucket
// whose counters are all free is skipped without an off-chip access (and,
// when all-zero with rule 1 active, proves a definite miss); every other
// candidate bucket is read once and its slots searched.
//
//mcvet:hotpath
func (t *BlockedTable) scanBuckets(key uint64, cand []int) blockedScan {
	st := blockedScan{foundTable: -1, flagAnd: true}
	d, l := t.cfg.D, t.cfg.Slots
	var cnt [8]uint64
	for i := 0; i < d; i++ {
		t.bucketCounters(i, cand[i], cnt[:l])
		live := false
		allZero := true
		for s := 0; s < l; s++ {
			if !t.isFree(cnt[s]) {
				live = true
			}
			if cnt[s] != 0 {
				allZero = false
			}
		}
		if !live {
			if allZero && t.rule1Active() {
				st.earlyMiss = true
				return st
			}
			continue
		}
		flag := t.readBucketAccess(i, cand[i])
		st.readAny = true
		st.flagAnd = st.flagAnd && flag
		base := t.slotIndex(i, cand[i], 0)
		for s := 0; s < l; s++ {
			if !t.isFree(cnt[s]) && t.keys[base+s] == key {
				st.foundTable, st.foundSlot = i, s
				return st
			}
		}
	}
	return st
}

// shouldProbeStash applies the blocked pre-screen: an early miss never
// probes; otherwise the stash is consulted only when every flag observed
// during the scan was set (skipped buckets are neglected, §III.F/G).
//
//mcvet:hotpath
func (t *BlockedTable) shouldProbeStash(st blockedScan) bool {
	if t.overflow == nil || t.overflow.Len() == 0 {
		return false
	}
	if st.earlyMiss {
		return false
	}
	return st.flagAnd
}

// Lookup returns the value stored for key.
//
//mcvet:hotpath
func (t *BlockedTable) Lookup(key uint64) (uint64, bool) {
	t.stats.Lookups++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	st := t.scanBuckets(key, cand[:t.cfg.D])
	if st.foundTable >= 0 {
		t.stats.Hits++
		return t.vals[t.slotIndex(st.foundTable, cand[st.foundTable], st.foundSlot)], true
	}
	if t.shouldProbeStash(st) {
		t.stats.StashProbe++
		if v, ok := t.overflow.Lookup(key); ok {
			t.stats.Hits++
			return v, true
		}
	}
	return 0, false
}

// Delete removes key (Algorithm 3): the first live copy's slot hints reveal
// every sibling, so all copies are released by resetting their on-chip
// counters — zero off-chip writes.
//
//mcvet:hotpath
func (t *BlockedTable) Delete(key uint64) bool {
	t.stats.Deletes++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	st := t.scanBuckets(key, cand[:t.cfg.D])
	if st.foundTable >= 0 {
		idx := t.slotIndex(st.foundTable, cand[st.foundTable], st.foundSlot)
		hints := t.hints[idx]
		hints[st.foundTable] = int8(st.foundSlot)
		mark := uint64(0)
		if t.cfg.Deletion == Tombstone {
			mark = t.tombstoneVal
		}
		released := 0
		for j := 0; j < t.cfg.D; j++ {
			if hints[j] == noSlot {
				continue
			}
			t.setSlotCounter(j, cand[j], int(hints[j]), mark)
			released++
		}
		t.copiesTotal -= released
		t.size--
		t.deletedAny = true
		return true
	}
	if t.shouldProbeStash(st) {
		t.stats.StashProbe++
		if t.overflow.Delete(key) {
			t.deletedAny = true
			return true
		}
	}
	return false
}

// RefreshStashFlags clears all stash flags and reinserts the stashed items,
// re-stashing those that still do not fit. It returns how many items moved
// into the main table.
func (t *BlockedTable) RefreshStashFlags() int {
	if t.overflow == nil {
		return 0
	}
	for i := 0; i < t.flags.Len(); i++ {
		t.clearStashFlag(i)
	}
	items := t.overflow.Drain()
	moved := 0
	for _, e := range items {
		var cand [hashutil.MaxD]int
		t.family.Indexes(e.Key, cand[:])
		if copies := t.place(e, cand[:t.cfg.D]); copies > 0 {
			t.size++
			moved++
			continue
		}
		if out := t.resolveCollision(e, cand[:t.cfg.D]); out.Status == kv.Placed {
			moved++
		}
	}
	return moved
}

// reseedRNG re-derives the random-walk generator after a snapshot load.
func (t *BlockedTable) reseedRNG() {
	t.rng = rand.New(rand.NewPCG(t.cfg.Seed, hashutil.Mix64(t.cfg.Seed+uint64(t.size)+3)))
}
