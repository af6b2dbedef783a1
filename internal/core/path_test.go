package core

import (
	"sync"
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// fillPathwise fills a table via InsertPathwise, returning the inserted keys.
func fillPathwise(t *testing.T, tab *Table, seed uint64, n int) []uint64 {
	t.Helper()
	keys := fillKeys(seed, n)
	for i, k := range keys {
		if out := tab.InsertPathwise(k, k+1); out.Status == kv.Failed {
			t.Fatalf("pathwise insert %d failed at load %.3f", i, tab.LoadRatio())
		}
	}
	return keys
}

func TestInsertPathwiseBasic(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 51, AssumeUniqueKeys: true,
		StashEnabled: true})
	keys := fillPathwise(t, tab, 52, 100)
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost (ok=%v)", k, ok)
		}
	}
	checkInv(t, tab)
}

func TestInsertPathwiseHighLoad(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 2048, Seed: 53, AssumeUniqueKeys: true,
		StashEnabled: true})
	target := int(0.90 * float64(tab.Capacity()))
	keys := fillPathwise(t, tab, 54, target)
	checkInv(t, tab)
	for _, k := range keys {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost at 90%% load", k)
		}
	}
	if tab.Stats().Kicks == 0 {
		t.Fatal("no path moves recorded at 90% load; pathwise machinery unused")
	}
}

// TestInsertPathwiseInvariantsEveryStep drives the staged protocol manually
// and checks full table invariants after every single ApplyMove — the
// property that makes interleaved readers safe.
func TestInsertPathwiseInvariantsEveryStep(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 256, Seed: 55, AssumeUniqueKeys: true,
		StashEnabled: true})
	keys := fillKeys(56, int(0.92*float64(tab.Capacity())))
	paths := 0
	for _, k := range keys {
		out, done := tab.TryPlace(k, k+1)
		if done {
			if out.Status == kv.Failed {
				t.Fatal("placement failed")
			}
			continue
		}
		path, ok := tab.FindPath(k)
		if !ok {
			tab.StashOverflow(k, k+1)
			continue
		}
		paths++
		for i := len(path) - 1; i >= 0; i-- {
			if err := tab.ApplyMove(path[i]); err != nil {
				t.Fatalf("ApplyMove: %v", err)
			}
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("invariants broken mid-path (hop %d of %d): %v", i, len(path), err)
			}
			// size is not incremented until FinishPath, but no
			// previously inserted key may be missing mid-path.
		}
		tab.FinishPath(k, k+1, path[0], len(path))
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("invariants broken after FinishPath: %v", err)
		}
	}
	if paths == 0 {
		t.Fatal("no cuckoo paths exercised at 92% load")
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost", k)
		}
	}
}

// TestPathwiseNoItemLostMidPath asserts the headline property: every key
// inserted so far stays findable between path steps.
func TestPathwiseNoItemLostMidPath(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 128, Seed: 57, AssumeUniqueKeys: true,
		StashEnabled: true})
	keys := fillKeys(58, int(0.90*float64(tab.Capacity())))
	inserted := make([]uint64, 0, len(keys))
	checkAll := func(stage string) {
		for _, k := range inserted {
			if _, ok := tab.Lookup(k); !ok {
				t.Fatalf("%s: key %#x unfindable", stage, k)
			}
		}
	}
	for _, k := range keys {
		if _, done := tab.TryPlace(k, k+1); done {
			inserted = append(inserted, k)
			continue
		}
		path, ok := tab.FindPath(k)
		if !ok {
			tab.StashOverflow(k, k+1)
			inserted = append(inserted, k)
			continue
		}
		for i := len(path) - 1; i >= 0; i-- {
			if err := tab.ApplyMove(path[i]); err != nil {
				t.Fatal(err)
			}
			checkAll("mid-path")
		}
		tab.FinishPath(k, k+1, path[0], len(path))
		inserted = append(inserted, k)
	}
	checkAll("final")
}

func TestFindPathFailsWhenBoxedIn(t *testing.T) {
	// A minuscule table crammed to the brim: paths must eventually fail
	// and the overflow land in the stash rather than loop forever.
	tab := mustNew(t, Config{BucketsPerTable: 8, Seed: 59, MaxLoop: 16,
		AssumeUniqueKeys: true, StashEnabled: true})
	keys := fillKeys(60, 30)
	for _, k := range keys {
		if out := tab.InsertPathwise(k, k); out.Status == kv.Failed {
			t.Fatal("failed despite unbounded stash")
		}
	}
	if tab.StashLen() == 0 {
		t.Fatal("expected stash overflow at 125% load")
	}
	for _, k := range keys {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
	checkInv(t, tab)
}

func TestConcurrentInsertPathwise(t *testing.T) {
	inner := mustNew(t, Config{BucketsPerTable: 1024, Seed: 61, AssumeUniqueKeys: true,
		StashEnabled: true})
	c := NewConcurrent(inner, nil, nil)
	keys := fillKeys(62, int(0.88*float64(inner.Capacity())))
	// Pre-load 60% through the pathwise writer, then run readers against
	// the rest of the fill.
	split := len(keys) * 2 / 3
	for _, k := range keys[:split] {
		c.InsertPathwise(k, k+1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := hashutil.Mix64(uint64(r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[hashutil.SplitMix64(&s)%uint64(split)]
				if v, ok := c.Lookup(k); !ok || v != k+1 {
					t.Errorf("reader %d: key %#x missing or wrong (%d,%v)", r, k, v, ok)
					return
				}
			}
		}(r)
	}
	for _, k := range keys[split:] {
		if out := c.InsertPathwise(k, k+1); out.Status == kv.Failed {
			t.Error("pathwise insert failed")
			break
		}
	}
	close(stop)
	wg.Wait()
	for _, k := range keys {
		if v, ok := c.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost after concurrent pathwise fill", k)
		}
	}
	if err := inner.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPathwiseBlockedBasic(t *testing.T) {
	inner := mustNewBlocked(t, Config{BucketsPerTable: 64, Seed: 63, StashEnabled: true})
	c := NewConcurrent(inner, nil, nil)
	if out := c.InsertPathwise(1, 2); out.Status != kv.Placed {
		t.Fatalf("insert status %v", out.Status)
	}
	if v, ok := c.Lookup(1); !ok || v != 2 {
		t.Fatal("insert lost")
	}
}

// TestPathwiseEquivalentLoadCurve sanity-checks that pathwise insertion
// sustains the same loads as the in-place walk.
func TestPathwiseEquivalentLoadCurve(t *testing.T) {
	for _, pathwise := range []bool{false, true} {
		tab := mustNew(t, Config{BucketsPerTable: 1024, Seed: 65, AssumeUniqueKeys: true,
			StashEnabled: true})
		keys := fillKeys(66, int(0.90*float64(tab.Capacity())))
		for _, k := range keys {
			var out kv.Outcome
			if pathwise {
				out = tab.InsertPathwise(k, k)
			} else {
				out = tab.Insert(k, k)
			}
			if out.Status == kv.Failed {
				t.Fatalf("pathwise=%v: insert failed", pathwise)
			}
		}
		if stashed := tab.StashLen(); stashed > len(keys)/100 {
			t.Errorf("pathwise=%v: %d stashed at 90%% load, want <1%%", pathwise, stashed)
		}
		checkInv(t, tab)
	}
}

func TestBlockedInsertPathwiseHighLoad(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 512, Seed: 67, AssumeUniqueKeys: true,
		StashEnabled: true})
	target := int(0.99 * float64(tab.Capacity()))
	keys := fillKeys(68, target)
	for i, k := range keys {
		if out := tab.InsertPathwise(k, k+1); out.Status == kv.Failed {
			t.Fatalf("pathwise insert %d failed at load %.3f", i, tab.LoadRatio())
		}
	}
	checkBlockedInv(t, tab)
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost at 99%% load", k)
		}
	}
	if tab.Stats().Kicks == 0 {
		t.Fatal("no path moves recorded at 99% load")
	}
}

// TestBlockedInsertPathwiseZeroAlloc: once the walk's scratch has grown, a
// pathwise insert into a blocked table at high load allocates nothing. Every
// measured insert is a real collision (all candidate slots hold sole
// copies), so every one of them searches a path.
func TestBlockedInsertPathwiseZeroAlloc(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 1024, Seed: 73, AssumeUniqueKeys: true,
		StashEnabled: true})
	keys := fillKeys(74, 1<<16)
	fill := int(0.95 * float64(tab.Capacity()))
	for _, k := range keys[:fill] {
		tab.InsertPathwise(k, k)
	}
	collides := func(k uint64) bool {
		var cand [hashutil.MaxD]int
		tab.family.Indexes(k, cand[:])
		for j := 0; j < tab.cfg.D; j++ {
			for s := 0; s < tab.cfg.Slots; s++ {
				if tab.counters.Get(tab.slotIndex(j, cand[j], s)) != 1 {
					return false
				}
			}
		}
		return true
	}
	kicks := tab.Stats().Kicks
	next := fill
	allocs := testing.AllocsPerRun(100, func() {
		for !collides(keys[next]) {
			next++
		}
		tab.InsertPathwise(keys[next], keys[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("InsertPathwise at 95%% load allocates %.2f times per call", allocs)
	}
	if tab.Stats().Kicks == kicks {
		t.Fatal("no measured insert searched a path")
	}
	checkBlockedInv(t, tab)
}

func TestBlockedPathwiseInvariantsEveryStep(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 64, Seed: 69, AssumeUniqueKeys: true,
		StashEnabled: true})
	keys := fillKeys(70, tab.Capacity())
	paths := 0
	for _, k := range keys {
		out, done := tab.TryPlace(k, k+1)
		if done {
			if out.Status == kv.Failed {
				t.Fatal("placement failed")
			}
			continue
		}
		path, ok := tab.FindPath(k)
		if !ok {
			tab.StashOverflow(k, k+1)
			continue
		}
		paths++
		for i := len(path) - 1; i >= 0; i-- {
			if err := tab.ApplyMove(path[i]); err != nil {
				t.Fatalf("ApplyMove: %v", err)
			}
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("invariants broken mid-path (hop %d of %d): %v", i, len(path), err)
			}
		}
		tab.FinishPath(k, k+1, path[0], len(path))
		if err := tab.CheckInvariants(); err != nil {
			t.Fatalf("invariants broken after FinishPath: %v", err)
		}
	}
	if paths == 0 {
		t.Fatal("no cuckoo paths exercised at 100% load")
	}
	for _, k := range keys {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
}

func TestConcurrentBlockedPathwise(t *testing.T) {
	inner := mustNewBlocked(t, Config{BucketsPerTable: 256, Seed: 71, AssumeUniqueKeys: true,
		StashEnabled: true})
	c := NewConcurrent(inner, nil, nil)
	keys := fillKeys(72, int(0.98*float64(inner.Capacity())))
	split := len(keys) * 2 / 3
	for _, k := range keys[:split] {
		c.InsertPathwise(k, k+1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := hashutil.Mix64(uint64(r + 40))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[hashutil.SplitMix64(&s)%uint64(split)]
				if v, ok := c.Lookup(k); !ok || v != k+1 {
					t.Errorf("reader %d: key %#x missing or wrong (%d,%v)", r, k, v, ok)
					return
				}
			}
		}(r)
	}
	for _, k := range keys[split:] {
		if out := c.InsertPathwise(k, k+1); out.Status == kv.Failed {
			t.Error("pathwise insert failed")
			break
		}
	}
	close(stop)
	wg.Wait()
	for _, k := range keys {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
	if err := inner.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
