package core

import (
	"testing"

	"mccuckoo/internal/kv"
)

// repairTable is the surface the repair tests drive for both table kinds.
type repairTable interface {
	kv.Table
	Repair() RepairReport
	CheckInvariants() error
	FaultNumCounters() int
	FaultCounter(i int) uint64
	FaultSetCounter(i int, v uint64)
	FaultNumFlags() int
	FaultSetFlag(i int, set bool)
	FaultNumCells() int
	FaultCellKey(i int) uint64
	FaultSetCellKey(i int, key uint64)
	FaultCellValue(i int) uint64
	FaultSetCellValue(i int, v uint64)
	FaultCellIsCandidate(key uint64, cell int) bool
}

// repairMatrix runs fn against freshly built tables of every kind ×
// deletion-mode × policy combination, loaded to high occupancy.
func repairMatrix(t *testing.T, load float64, fn func(t *testing.T, tab repairTable, expect map[uint64]uint64)) {
	t.Helper()
	cases := []struct {
		name    string
		blocked bool
		cfg     Config
	}{
		{"single", false, Config{BucketsPerTable: 128, Seed: 11, MaxLoop: 100, StashEnabled: true}},
		{"single-tombstone", false, Config{BucketsPerTable: 128, Seed: 12, MaxLoop: 100, StashEnabled: true, Deletion: Tombstone}},
		{"single-mincounter", false, Config{BucketsPerTable: 128, Seed: 13, MaxLoop: 100, StashEnabled: true, Policy: kv.MinCounter}},
		{"single-bfs", false, Config{BucketsPerTable: 128, Seed: 16, MaxLoop: 100, StashEnabled: true, Policy: kv.BFS}},
		{"blocked", true, Config{BucketsPerTable: 32, Seed: 14, MaxLoop: 100, StashEnabled: true}},
		{"blocked-tombstone", true, Config{BucketsPerTable: 32, Seed: 15, MaxLoop: 100, StashEnabled: true, Deletion: Tombstone}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tab repairTable
			if tc.blocked {
				tab = mustNewBlocked(t, tc.cfg)
			} else {
				tab = mustNew(t, tc.cfg)
			}
			n := int(load * float64(tab.Capacity()))
			expect := make(map[uint64]uint64, n)
			for _, k := range fillKeys(tc.cfg.Seed, n) {
				if tab.Insert(k, k*31+7).Status != kv.Failed {
					expect[k] = k*31 + 7
				}
			}
			fn(t, tab, expect)
		})
	}
}

func checkRepairTable(t *testing.T, tab repairTable, expect map[uint64]uint64) {
	t.Helper()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
	for k, v := range expect {
		got, ok := tab.Lookup(k)
		if !ok || got != v {
			t.Fatalf("key %#x after repair: got (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
}

// A consistent table must repair to itself: no fixes, no size change.
func TestRepairHealthyNoOp(t *testing.T) {
	repairMatrix(t, 0.90, func(t *testing.T, tab repairTable, expect map[uint64]uint64) {
		size, copies := tab.Len(), tab.StashLen()
		rep := tab.Repair()
		if rep.Any() {
			t.Fatalf("repair of a healthy table reported changes: %v", rep)
		}
		if tab.Len() != size || tab.StashLen() != copies {
			t.Fatalf("healthy repair moved bookkeeping: Len %d->%d", size, tab.Len())
		}
		checkRepairTable(t, tab, expect)
	})
}

// A full on-chip wipe (counters zeroed, flags zeroed) on a never-deleted
// table must rebuild completely: every key findable, invariants hold, and a
// second Repair is a no-op.
func TestRepairFullOnChipWipe(t *testing.T) {
	repairMatrix(t, 0.85, func(t *testing.T, tab repairTable, expect map[uint64]uint64) {
		for i := 0; i < tab.FaultNumCounters(); i++ {
			tab.FaultSetCounter(i, 0)
		}
		for i := 0; i < tab.FaultNumFlags(); i++ {
			tab.FaultSetFlag(i, false)
		}
		rep := tab.Repair()
		if rep.CountersFixed == 0 {
			t.Fatal("wipe repaired without counter fixes")
		}
		checkRepairTable(t, tab, expect)
		if tab.Len() != len(expect) {
			t.Fatalf("Len after wipe repair = %d, want %d", tab.Len(), len(expect))
		}
		if rep2 := tab.Repair(); rep2.Any() {
			t.Fatalf("second repair not a no-op: %v", rep2)
		}
	})
}

// An alien key (bucket content overwritten with a key that does not hash
// there) is cleared, and the item survives through its sibling copies.
func TestRepairAlienCleared(t *testing.T) {
	repairMatrix(t, 0.60, func(t *testing.T, tab repairTable, expect map[uint64]uint64) {
		// Find a cell holding a live multi-copy key.
		copies := map[uint64]int{}
		for i := 0; i < tab.FaultNumCells(); i++ {
			k := tab.FaultCellKey(i)
			if k != 0 && tab.FaultCounter(i) != 0 && tab.FaultCellIsCandidate(k, i) {
				copies[k]++
			}
		}
		target := -1
		for i := 0; i < tab.FaultNumCells(); i++ {
			k := tab.FaultCellKey(i)
			if k != 0 && tab.FaultCounter(i) != 0 && tab.FaultCellIsCandidate(k, i) && copies[k] >= 2 {
				target = i
				break
			}
		}
		if target < 0 {
			t.Skip("no multi-copy key at this load")
		}
		alien := uint64(0xdead_beef_cafe_f00d)
		for tab.FaultCellIsCandidate(alien, target) {
			alien++
		}
		tab.FaultSetCellKey(target, alien)
		rep := tab.Repair()
		if rep.AliensCleared == 0 {
			t.Fatalf("alien not detected: %v", rep)
		}
		checkRepairTable(t, tab, expect)
		if _, ok := tab.Lookup(alien); ok {
			t.Fatal("alien key became findable")
		}
	})
}

// A corrupted value on one copy of a triple-copy key is outvoted by the
// majority and rewritten.
func TestRepairValueMajority(t *testing.T) {
	repairMatrix(t, 0.40, func(t *testing.T, tab repairTable, expect map[uint64]uint64) {
		copies := map[uint64]int{}
		for i := 0; i < tab.FaultNumCells(); i++ {
			k := tab.FaultCellKey(i)
			if k != 0 && tab.FaultCounter(i) != 0 && tab.FaultCellIsCandidate(k, i) {
				copies[k]++
			}
		}
		target := -1
		for i := 0; i < tab.FaultNumCells(); i++ {
			k := tab.FaultCellKey(i)
			if k != 0 && tab.FaultCounter(i) != 0 && tab.FaultCellIsCandidate(k, i) && copies[k] >= 3 {
				target = i
				break
			}
		}
		if target < 0 {
			t.Skip("no triple-copy key at this load")
		}
		tab.FaultSetCellValue(target, tab.FaultCellValue(target)^0x5555)
		rep := tab.Repair()
		if rep.ValuesFixed == 0 {
			t.Fatalf("diverged value not fixed: %v", rep)
		}
		checkRepairTable(t, tab, expect)
	})
}

// Deletion rollback, the documented limitation: a deleted key whose counter
// is corrupted back to non-free is resurrected with its pre-deletion value.
func TestRepairResurrection(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 21, MaxLoop: 100, StashEnabled: true})
	keys := fillKeys(22, 60)
	for _, k := range keys {
		tab.Insert(k, k+5)
	}
	victim := keys[7]
	// Find one of the victim's stored copies before deleting it.
	cell := -1
	for i := 0; i < tab.FaultNumCells(); i++ {
		if tab.FaultCellKey(i) == victim && tab.FaultCellIsCandidate(victim, i) {
			cell = i
			break
		}
	}
	if cell < 0 {
		t.Fatal("victim has no stored copy")
	}
	if !tab.Delete(victim) {
		t.Fatal("delete failed")
	}
	if _, ok := tab.Lookup(victim); ok {
		t.Fatal("victim still findable after delete")
	}
	// SRAM fault: the freed counter flips back to non-free.
	tab.FaultSetCounter(cell, 1)
	tab.Repair()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if v, ok := tab.Lookup(victim); !ok || v != victim+5 {
		t.Fatalf("resurrected key = (%d,%v), want pre-deletion value %d", v, ok, victim+5)
	}
}

// On a table that has deleted, a key whose every counter is zeroed is
// indistinguishable from a deleted key and stays dead — while every other
// key survives.
func TestRepairZeroedCountersStayDeadAfterDeletion(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 23, MaxLoop: 100, StashEnabled: true})
	keys := fillKeys(24, 60)
	for _, k := range keys {
		tab.Insert(k, k+5)
	}
	tab.Delete(keys[0]) // any deletion flips the table's liveness rule
	victim := keys[9]
	for i := 0; i < tab.FaultNumCells(); i++ {
		if tab.FaultCellKey(i) == victim && tab.FaultCellIsCandidate(victim, i) {
			tab.FaultSetCounter(i, 0)
		}
	}
	tab.Repair()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if _, ok := tab.Lookup(victim); ok {
		t.Fatal("key with fully zeroed counters survived on a deleted table")
	}
	for _, k := range keys[10:] {
		if v, ok := tab.Lookup(k); !ok || v != k+5 {
			t.Fatalf("unrelated key %#x damaged by repair: (%d,%v)", k, v, ok)
		}
	}
}

// Repair resynchronizes stash flags: cleared flags (stashed items invisible
// to lookups) come back, spurious flags are dropped.
func TestRepairStashFlagResync(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 25, MaxLoop: 30, StashEnabled: true})
	keys := fillKeys(26, 200) // way past capacity: guarantees stash entries
	expect := map[uint64]uint64{}
	for _, k := range keys {
		if tab.Insert(k, k^9).Status != kv.Failed {
			expect[k] = k ^ 9
		}
	}
	if tab.StashLen() == 0 {
		t.Fatal("test needs stash entries")
	}
	for i := 0; i < tab.FaultNumFlags(); i++ {
		tab.FaultSetFlag(i, i%2 == 0) // half spurious, half cleared
	}
	rep := tab.Repair()
	if rep.FlagsFixed == 0 {
		t.Fatalf("flag corruption not fixed: %v", rep)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for k, v := range expect {
		if got, ok := tab.Lookup(k); !ok || got != v {
			t.Fatalf("key %#x after flag resync: (%d,%v)", k, got, ok)
		}
	}
	if rep2 := tab.Repair(); rep2.Any() {
		t.Fatalf("second repair not a no-op: %v", rep2)
	}
}

// Repair on tables with deletion churn keeps all still-live keys intact and
// leaves a table that repairs to itself.
func TestRepairAfterChurnNoOp(t *testing.T) {
	for _, mode := range []DeletionMode{ResetCounters, Tombstone} {
		tab := mustNew(t, Config{BucketsPerTable: 128, Seed: 27, MaxLoop: 100,
			StashEnabled: true, Deletion: mode})
		keys := fillKeys(28, 300)
		for _, k := range keys {
			tab.Insert(k, k)
		}
		for _, k := range keys[:150] {
			tab.Delete(k)
		}
		for _, k := range keys[:75] {
			tab.Insert(k, k*3)
		}
		rep := tab.Repair()
		// Stash flags may legitimately resync (deletion leaves stale Bloom
		// bits); nothing else may change on a consistent table.
		if rep.CountersFixed != 0 || rep.AliensCleared != 0 || rep.ValuesFixed != 0 ||
			rep.StashDropped != 0 || rep.SizeBefore != rep.SizeAfter {
			t.Fatalf("mode %v: churned-but-consistent table changed: %v", mode, rep)
		}
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("mode %v: invariants: %v", mode, err)
		}
		for _, k := range keys[:75] {
			if v, ok := tab.Lookup(k); !ok || v != k*3 {
				t.Fatalf("mode %v: reinserted key %#x = (%d,%v)", mode, k, v, ok)
			}
		}
		for _, k := range keys[75:150] {
			if _, ok := tab.Lookup(k); ok {
				t.Fatalf("mode %v: deleted key %#x resurrected by repair", mode, k)
			}
		}
		if rep2 := tab.Repair(); rep2.Any() {
			t.Fatalf("mode %v: second repair not a no-op: %v", mode, rep2)
		}
	}
}
