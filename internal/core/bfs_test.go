package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"mccuckoo/internal/kv"
)

// TestBFSFillInvariants fills a BFS table to 92% load, checking every
// invariant after each insert that relocated items, then finds every key.
func TestBFSFillInvariants(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 512, Seed: 201, Policy: kv.BFS,
		AssumeUniqueKeys: true, StashEnabled: true})
	keys := fillKeys(202, int(0.92*float64(tab.Capacity())))
	relocating := 0
	for i, k := range keys {
		out := tab.Insert(k, k+1)
		if out.Status == kv.Failed {
			t.Fatalf("insert %d failed at load %.3f", i, tab.LoadRatio())
		}
		if out.Kicks > 0 {
			relocating++
			if err := tab.CheckInvariants(); err != nil {
				t.Fatalf("insert %d (%d kicks): %v", i, out.Kicks, err)
			}
		}
	}
	if relocating == 0 {
		t.Fatal("no insert relocated items at 92% load")
	}
	checkInv(t, tab)
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost (v=%d ok=%v)", k, v, ok)
		}
	}
}

// TestFindPathShape checks every path the search returns while filling
// tables past capacity: bucket-disjoint, each hop moving a sole copy
// (counter 1) to one of its own candidates, the last hop ending at a counter
// other than 1, and each hop's destination being the next hop's source.
// Small tables make the search queue the same buckets many times over.
func TestFindPathShape(t *testing.T) {
	paths := 0
	for _, n := range []int{8, 32, 256} {
		for seed := uint64(0); seed < 8; seed++ {
			paths += checkPathShapes(t, n, seed)
		}
	}
	if paths == 0 {
		t.Fatal("no paths searched")
	}
}

// checkPathShapes fills one table to 110% load through the staged protocol,
// checking each path, and returns how many paths it executed.
func checkPathShapes(t *testing.T, n int, seed uint64) int {
	t.Helper()
	tab := mustNew(t, Config{BucketsPerTable: n, Seed: 203 + seed, MaxLoop: 50,
		AssumeUniqueKeys: true, StashEnabled: true})
	paths := 0
	for _, k := range fillKeys(204+seed, int(1.1*float64(tab.Capacity()))) {
		if _, done := tab.TryPlace(k, k); done {
			continue
		}
		path, ok := tab.FindPath(k)
		if !ok {
			tab.StashOverflow(k, k)
			continue
		}
		paths++
		var kcand [4]int
		tab.family.Indexes(k, kcand[:])
		if head := path[0]; kcand[head.FromTable] != head.FromBucket {
			t.Fatalf("path head (%d,%d) is not a candidate of the key", head.FromTable, head.FromBucket)
		}
		seen := map[int]bool{}
		for i, m := range path {
			from := tab.bucketIndex(m.FromTable, m.FromBucket)
			if seen[from] {
				t.Fatalf("path revisits bucket (%d,%d)", m.FromTable, m.FromBucket)
			}
			seen[from] = true
			if c := tab.counters.Get(from); c != 1 || tab.cells[from].Key != m.Key {
				t.Fatalf("hop %d moves %#x from a bucket with counter %d holding %#x", i, m.Key, c, tab.cells[from].Key)
			}
			var vcand [4]int
			tab.family.Indexes(m.Key, vcand[:])
			if m.ToTable == m.FromTable || vcand[m.ToTable] != m.ToBucket {
				t.Fatalf("hop %d destination (%d,%d) is not another candidate of %#x", i, m.ToTable, m.ToBucket, m.Key)
			}
			if i+1 < len(path) {
				if next := path[i+1]; next.FromTable != m.ToTable || next.FromBucket != m.ToBucket {
					t.Fatalf("hop %d ends at (%d,%d) but hop %d starts at (%d,%d)", i, m.ToTable, m.ToBucket, i+1, next.FromTable, next.FromBucket)
				}
			}
		}
		last := path[len(path)-1]
		to := tab.bucketIndex(last.ToTable, last.ToBucket)
		if seen[to] || tab.counters.Get(to) == 1 {
			t.Fatalf("path ends at (%d,%d) with counter %d", last.ToTable, last.ToBucket, tab.counters.Get(to))
		}
		for i := len(path) - 1; i >= 0; i-- {
			if err := tab.ApplyMove(path[i]); err != nil {
				t.Fatal(err)
			}
		}
		tab.FinishPath(k, k, path[0], len(path))
	}
	checkInv(t, tab)
	return paths
}

// TestBFSInsertZeroAlloc: once the search scratch has grown, an insert that
// searches a path allocates nothing.
func TestBFSInsertZeroAlloc(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 4096, Seed: 205, Policy: kv.BFS,
		AssumeUniqueKeys: true, StashEnabled: true})
	keys := fillKeys(206, int(0.92*float64(tab.Capacity())))
	fill := int(0.90 * float64(tab.Capacity()))
	for _, k := range keys[:fill] {
		tab.Insert(k, k)
	}
	next := fill
	allocs := testing.AllocsPerRun(len(keys)-fill-1, func() {
		tab.Insert(keys[next], keys[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("Insert at 90%% load allocates %.2f times per call", allocs)
	}
	if tab.Stats().Kicks == 0 {
		t.Fatal("no insert searched a path")
	}
}

// TestBFSCapacityMatchesRandomWalk: the shortest-path search trades the
// random walk's long chains for reads, not capacity. The load at the first
// stashed item and the stash size at 94% load match the random walk's within
// 1%, over four seeds.
func TestBFSCapacityMatchesRandomWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("fills four 98 Ki-bucket tables per policy")
	}
	measure := func(pol kv.KickPolicy) (firstStash float64, stashed int, kicks int64) {
		for seed := uint64(1); seed <= 4; seed++ {
			tab := mustNew(t, Config{BucketsPerTable: 1 << 15, Seed: seed, Policy: pol,
				AssumeUniqueKeys: true, StashEnabled: true})
			first := 0.0
			for _, k := range fillKeys(seed+300, int(0.94*float64(tab.Capacity()))) {
				if tab.Insert(k, k).Status == kv.Stashed && first == 0 {
					first = tab.LoadRatio()
				}
			}
			firstStash += first / 4
			stashed += tab.StashLen()
			kicks += tab.Stats().Kicks
		}
		return firstStash, stashed, kicks
	}
	rwFirst, rwStash, rwKicks := measure(kv.RandomWalk)
	bfsFirst, bfsStash, bfsKicks := measure(kv.BFS)
	t.Logf("first stash at load %.4f (random walk) vs %.4f (BFS); stash at 94%%: %d vs %d; kicks %d vs %d",
		rwFirst, bfsFirst, rwStash, bfsStash, rwKicks, bfsKicks)
	if math.Abs(bfsFirst-rwFirst) > 0.01*rwFirst {
		t.Errorf("first-stash load %.4f under BFS, %.4f under the random walk", bfsFirst, rwFirst)
	}
	if math.Abs(float64(bfsStash-rwStash)) > 0.01*float64(rwStash) {
		t.Errorf("stash at 94%% load %d under BFS, %d under the random walk", bfsStash, rwStash)
	}
	if bfsKicks >= rwKicks {
		t.Errorf("BFS relocated %d items, the random walk %d", bfsKicks, rwKicks)
	}
}

// TestPolicyValidation: unknown resolver policies are rejected, and BFS is
// rejected for blocked tables, rather than silently running as random walk.
func TestPolicyValidation(t *testing.T) {
	for _, pol := range []kv.KickPolicy{kv.RandomWalk, kv.MinCounter, kv.BFS} {
		if _, err := New(Config{BucketsPerTable: 16, Policy: pol}); err != nil {
			t.Errorf("New rejected %s: %v", pol, err)
		}
	}
	for _, pol := range []kv.KickPolicy{kv.RandomWalk, kv.MinCounter} {
		if _, err := NewBlocked(Config{BucketsPerTable: 16, Policy: pol}); err != nil {
			t.Errorf("NewBlocked rejected %s: %v", pol, err)
		}
	}
	for _, pol := range []kv.KickPolicy{kv.BFS + 1, 200} {
		if _, err := New(Config{BucketsPerTable: 16, Policy: pol}); err == nil || !strings.Contains(err.Error(), "unknown collision resolver") {
			t.Errorf("New accepted policy %d: %v", pol, err)
		}
		if _, err := NewBlocked(Config{BucketsPerTable: 16, Policy: pol}); err == nil || !strings.Contains(err.Error(), "unknown collision resolver") {
			t.Errorf("NewBlocked accepted policy %d: %v", pol, err)
		}
	}
	if _, err := NewBlocked(Config{BucketsPerTable: 16, Policy: kv.BFS}); err == nil || !strings.Contains(err.Error(), "single-slot only") {
		t.Errorf("NewBlocked accepted %s: %v", kv.BFS, err)
	}
}

// TestSnapshotKeepsPolicy: every single-slot policy survives a snapshot
// round trip and keeps resolving collisions after the load.
func TestSnapshotKeepsPolicy(t *testing.T) {
	for _, pol := range []kv.KickPolicy{kv.RandomWalk, kv.MinCounter, kv.BFS} {
		tab := mustNew(t, Config{BucketsPerTable: 128, Seed: 207, Policy: pol, StashEnabled: true})
		keys := fillKeys(208, int(0.90*float64(tab.Capacity())))
		for _, k := range keys[:len(keys)/2] {
			tab.Insert(k, k+1)
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: Load: %v", pol, err)
		}
		if got.cfg.Policy != pol {
			t.Fatalf("snapshot of a %s table loaded as %s", pol, got.cfg.Policy)
		}
		for _, k := range keys[len(keys)/2:] {
			if got.Insert(k, k+1).Status == kv.Failed {
				t.Fatalf("%s: post-load insert failed", pol)
			}
		}
		checkInv(t, got)
		for _, k := range keys {
			if v, ok := got.Lookup(k); !ok || v != k+1 {
				t.Fatalf("%s: key %#x lost", pol, k)
			}
		}
	}
}

// TestSnapshotRejectsBadPolicy: a snapshot whose policy byte is unknown, or
// BFS on a blocked table, is rejected as an invalid header.
func TestSnapshotRejectsBadPolicy(t *testing.T) {
	check := func(name string, err error) {
		t.Helper()
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "header" {
			t.Errorf("%s: want a header CorruptError, got %v", name, err)
		}
	}
	tab := mustNew(t, Config{BucketsPerTable: 16, Seed: 209})
	tab.Insert(1, 2)
	tab.cfg.Policy = kv.BFS + 1
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	check("unknown policy", err)

	blk := mustNewBlocked(t, Config{BucketsPerTable: 16, Seed: 210})
	blk.Insert(1, 2)
	blk.cfg.Policy = kv.BFS
	buf.Reset()
	if _, err := blk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBlocked(&buf)
	check("blocked BFS", err)
}
