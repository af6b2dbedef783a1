package core

import (
	"fmt"

	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// Grow rebuilds the table with a fresh hash family and growFactor times the
// buckets per subtable (growFactor >= 1; 1 rehashes in place, which also
// re-absorbs the stash). All live items and stashed items are reinserted;
// stash flags are rebuilt from scratch. The traffic of reading the whole
// table back and rewriting every item is charged to the meter — this is the
// expensive operation McCuckoo's stash exists to avoid (§I), provided here
// because real deployments eventually need capacity growth.
//
//mcvet:setter counters flags kickcounts
func (t *Table) Grow(growFactor float64) error {
	if growFactor < 1 {
		return fmt.Errorf("core: growFactor must be >= 1, got %g", growFactor)
	}
	items := t.liveEntries()
	// Reading every bucket back: one off-chip read per bucket.
	t.meter.ReadOff(int64(t.cfg.D * t.cfg.BucketsPerTable))
	if t.overflow != nil {
		items = append(items, t.overflow.Drain()...)
	}

	newN := int(float64(t.cfg.BucketsPerTable) * growFactor)
	newSeed := hashutil.Mix64(t.cfg.Seed + 0x47726f77)
	grownCfg := t.cfg
	grownCfg.BucketsPerTable, grownCfg.Seed = newN, newSeed
	family, err := newFamily(grownCfg)
	if err != nil {
		return err
	}
	buckets := t.cfg.D * newN
	counters, err := bitpack.NewCounters(buckets, t.cfg.counterWidth())
	if err != nil {
		return err
	}
	flags, err := bitpack.NewBitset(buckets)
	if err != nil {
		return err
	}
	t.cfg.Seed = newSeed
	t.cfg.BucketsPerTable = newN
	t.family = family
	t.counters = counters
	t.flags = flags
	t.cells = make([]kv.Entry, buckets)
	adviseHugePages(t.cells)
	if t.kickCounts != nil {
		if t.kickCounts, err = bitpack.NewCounters(buckets, 5); err != nil {
			return err
		}
	}
	t.size = 0
	t.copiesTotal = 0
	t.deletedAny = false

	for _, e := range items {
		var cand [hashutil.MaxD]int
		t.family.Indexes(e.Key, cand[:])
		if copies := t.place(e, cand[:t.cfg.D]); copies > 0 {
			t.size++
			continue
		}
		switch out := t.collide(e, cand[:t.cfg.D]); out.Status {
		case kv.Placed, kv.Stashed:
		default:
			return fmt.Errorf("core: grow failed to place key %#x", e.Key)
		}
	}
	return nil
}

// liveEntries collects one entry per distinct live key, without charging
// traffic (Grow charges the bulk read separately).
func (t *Table) liveEntries() []kv.Entry {
	seen := make(map[uint64]struct{}, t.size)
	items := make([]kv.Entry, 0, t.size)
	for idx := range t.cells {
		c := t.counters.Get(idx)
		if c == 0 || (t.tombstoneVal != 0 && c == t.tombstoneVal) {
			continue
		}
		key := t.cells[idx].Key
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		items = append(items, t.cells[idx])
	}
	return items
}

// Grow rebuilds the blocked table, exactly as Table.Grow.
//
//mcvet:setter counters flags kickcounts
func (t *BlockedTable) Grow(growFactor float64) error {
	if growFactor < 1 {
		return fmt.Errorf("core: growFactor must be >= 1, got %g", growFactor)
	}
	items := t.liveEntries()
	t.meter.ReadOff(int64(t.cfg.D * t.cfg.BucketsPerTable))
	if t.overflow != nil {
		items = append(items, t.overflow.Drain()...)
	}

	newN := int(float64(t.cfg.BucketsPerTable) * growFactor)
	newSeed := hashutil.Mix64(t.cfg.Seed + 0x47726f77)
	grownCfg := t.cfg
	grownCfg.BucketsPerTable, grownCfg.Seed = newN, newSeed
	family, err := newFamily(grownCfg)
	if err != nil {
		return err
	}
	slots := t.cfg.D * newN * t.cfg.Slots
	counters, err := bitpack.NewCounters(slots, t.cfg.counterWidth())
	if err != nil {
		return err
	}
	flags, err := bitpack.NewBitset(t.cfg.D * newN)
	if err != nil {
		return err
	}
	t.cfg.Seed = newSeed
	t.cfg.BucketsPerTable = newN
	t.family = family
	t.counters = counters
	t.flags = flags
	t.keys, t.vals, t.hints = newSlotArrays(slots)
	if t.kickCounts != nil {
		if t.kickCounts, err = bitpack.NewCounters(t.cfg.D*newN, 5); err != nil {
			return err
		}
	}
	t.size = 0
	t.copiesTotal = 0
	t.deletedAny = false

	for _, e := range items {
		var cand [hashutil.MaxD]int
		t.family.Indexes(e.Key, cand[:])
		if copies := t.place(e, cand[:t.cfg.D]); copies > 0 {
			t.size++
			continue
		}
		switch out := t.resolveCollision(e, cand[:t.cfg.D]); out.Status {
		case kv.Placed, kv.Stashed:
		default:
			return fmt.Errorf("core: grow failed to place key %#x", e.Key)
		}
	}
	return nil
}

// liveEntries collects one entry per distinct live key in the blocked table.
func (t *BlockedTable) liveEntries() []kv.Entry {
	seen := make(map[uint64]struct{}, t.size)
	items := make([]kv.Entry, 0, t.size)
	for idx := range t.keys {
		if t.isFree(t.counters.Get(idx)) {
			continue
		}
		key := t.keys[idx]
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		items = append(items, kv.Entry{Key: key, Value: t.vals[idx]})
	}
	return items
}
