package core

import (
	"sync"
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// TestReadOnlyLookupAgreesWithLookup drives both lookup paths over the same
// table states, including deletions and stash pressure, and requires
// identical answers.
func TestReadOnlyLookupAgreesWithLookup(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 256, Seed: 41, StashEnabled: true,
		MaxLoop: 50})
	s := uint64(42)
	for i := 0; i < 5000; i++ {
		r := hashutil.SplitMix64(&s)
		key := r % 900
		switch (r >> 32) % 5 {
		case 0, 1, 2:
			tab.Insert(key, r)
		case 3:
			tab.Delete(key)
		case 4:
			v1, ok1 := tab.LookupReadOnly(key)
			v2, ok2 := tab.Lookup(key)
			if ok1 != ok2 || (ok1 && v1 != v2) {
				t.Fatalf("op %d: read-only (%d,%v) vs lookup (%d,%v)", i, v1, ok1, v2, ok2)
			}
		}
	}
}

func TestBlockedReadOnlyLookupAgrees(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 96, Seed: 43, StashEnabled: true,
		MaxLoop: 50})
	s := uint64(44)
	for i := 0; i < 6000; i++ {
		r := hashutil.SplitMix64(&s)
		key := r % 800
		switch (r >> 32) % 5 {
		case 0, 1, 2:
			tab.Insert(key, r)
		case 3:
			tab.Delete(key)
		case 4:
			v1, ok1 := tab.LookupReadOnly(key)
			v2, ok2 := tab.Lookup(key)
			if ok1 != ok2 || (ok1 && v1 != v2) {
				t.Fatalf("op %d: read-only (%d,%v) vs lookup (%d,%v)", i, v1, ok1, v2, ok2)
			}
		}
	}
}

// TestConcurrentReadersOneWriter exercises the §III.H mode under the race
// detector: one writer mutating, many readers looking up.
func TestConcurrentReadersOneWriter(t *testing.T) {
	inner := mustNew(t, Config{BucketsPerTable: 1024, Seed: 45, StashEnabled: true})
	c := NewConcurrent(inner, nil, nil)
	keys := fillKeys(46, 2000)
	// Pre-load half so readers have hits from the start.
	for _, k := range keys[:1000] {
		c.Insert(k, k+1)
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
				k := keys[hashutil.SplitMix64(&s)%uint64(len(keys))]
				if v, ok := c.Lookup(k); ok && v != k+1 {
					t.Errorf("reader %d: wrong value %d for key %#x", r, v, k)
					return
				}
			}
		}(r)
	}
	for _, k := range keys[1000:] {
		c.Insert(k, k+1)
	}
	for _, k := range keys[:300] {
		c.Delete(k)
	}
	close(stop)
	wg.Wait()

	if c.Len() != 1700 {
		t.Fatalf("Len = %d, want 1700", c.Len())
	}
	for _, k := range keys[300:] {
		if v, ok := c.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost after concurrent phase", k)
		}
	}
	if got := c.Stats(); got.Lookups == 0 {
		t.Fatal("concurrent lookups not counted")
	}
}

// TestConcurrentInterleavedStress drives several writers (Insert/Delete
// serialize under the write lock, so multiple writer goroutines are within
// the wrapper's contract) against a pack of readers, then checks the table
// after quiescence: exact population, exact per-key content, and the full
// structural invariants of the inner table.
//
// Writers own disjoint key ranges, so each writer's per-key op sequence is
// deterministic regardless of interleaving: keys ≡ 0 (mod 3) are inserted,
// deleted, and reinserted with a new value; keys ≡ 1 (mod 3) are inserted
// and deleted; keys ≡ 2 (mod 3) are inserted once.
func TestConcurrentInterleavedStress(t *testing.T) {
	inner := mustNew(t, Config{BucketsPerTable: 2048, Seed: 51, StashEnabled: true})
	c := NewConcurrent(inner, nil, nil)

	const writers, perWriter = 4, 1500
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			s := hashutil.Mix64(uint64(100 + r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := hashutil.SplitMix64(&s) % (writers * perWriter)
				if v, ok := c.Lookup(k); ok && v != k+1 && v != k+2 {
					t.Errorf("reader %d: impossible value %d for key %#x", r, v, k)
					return
				}
			}
		}(r)
	}

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			base := uint64(w * perWriter)
			for i := uint64(0); i < perWriter; i++ {
				k := base + i
				if c.Insert(k, k+1).Status == kv.Failed {
					t.Errorf("writer %d: insert %#x failed", w, k)
					return
				}
				switch k % 3 {
				case 0:
					c.Delete(k)
					c.Insert(k, k+2)
				case 1:
					c.Delete(k)
				}
				if i%64 == 0 {
					// Writers read too: their own settled keys have
					// deterministic answers even mid-run.
					if v, ok := c.Lookup(k); (k%3 == 1) == ok || (ok && k%3 == 0 && v != k+2) {
						t.Errorf("writer %d: key %#x read back (%d,%v)", w, k, v, ok)
						return
					}
				}
			}
		}(w)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		t.Fatalf("concurrent phase failed")
	}

	// Quiescent checks: population, content, structure.
	wantLen := writers * perWriter * 2 / 3 // thirds 0 and 2 survive
	if c.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", c.Len(), wantLen)
	}
	for k := uint64(0); k < writers*perWriter; k++ {
		v, ok := c.Lookup(k)
		switch k % 3 {
		case 0:
			if !ok || v != k+2 {
				t.Fatalf("reinserted key %#x = (%d,%v), want (%d,true)", k, v, ok, k+2)
			}
		case 1:
			if ok {
				t.Fatalf("deleted key %#x still present with value %d", k, v)
			}
		case 2:
			if !ok || v != k+1 {
				t.Fatalf("inserted key %#x = (%d,%v), want (%d,true)", k, v, ok, k+1)
			}
		}
	}
	if err := inner.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after quiescence: %v", err)
	}
}

func TestConcurrentWrapsBlocked(t *testing.T) {
	inner := mustNewBlocked(t, Config{BucketsPerTable: 128, Seed: 47, StashEnabled: true})
	c := NewConcurrent(inner, nil, nil)
	keys := fillKeys(48, 500)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, k := range keys {
			c.Lookup(k)
		}
	}()
	for _, k := range keys {
		if c.Insert(k, k).Status == kv.Failed {
			t.Error("insert failed")
			break
		}
	}
	wg.Wait()
	for _, k := range keys {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("key %#x missing", k)
		}
	}
	if c.LoadRatio() <= 0 || c.Capacity() == 0 || c.StashLen() < 0 {
		t.Fatal("accessor smoke checks failed")
	}
}
