package mccuckoo

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// pathwiseStore is a Store that also inserts pathwise: every single-writer
// kind and its Concurrent wrapper.
type pathwiseStore interface {
	Store
	InsertPathwise(key, value uint64) InsertResult
}

// singleKinds builds each single-writer kind, bare and behind Concurrent,
// with the given options.
func singleKinds(t *testing.T, capacity int, opts ...Option) map[string]pathwiseStore {
	t.Helper()
	tab, err := New(capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := NewBlocked(capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctab, err := New(capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cblk, err := NewBlocked(capacity, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]pathwiseStore{
		"table":              tab,
		"blocked":            blk,
		"concurrent-table":   NewConcurrent(ctab),
		"concurrent-blocked": NewConcurrent(cblk),
	}
}

// TestTelemetryParity drives every single-writer kind, bare and wrapped in
// Concurrent, through the same operations with telemetry attached, and
// checks that each records the same per-op counters and fills the off-chip
// histograms. InsertPathwise records an insert event like Insert does.
func TestTelemetryParity(t *testing.T) {
	const (
		inserts  = 600
		pathwise = 60
		misses   = 200
		deletes  = 100
	)
	for _, name := range []string{"table", "blocked", "concurrent-table", "concurrent-blocked"} {
		t.Run(name, func(t *testing.T) {
			tel := NewTelemetry()
			s := singleKinds(t, 4096, WithSeed(9), WithTelemetry(tel))[name]
			for k := uint64(1); k <= inserts; k++ {
				s.Insert(k, k*7)
			}
			for k := uint64(inserts + 1); k <= inserts+pathwise; k++ {
				s.InsertPathwise(k, k*7)
			}
			for k := uint64(1); k <= inserts+pathwise; k++ {
				if v, ok := s.Lookup(k); !ok || v != k*7 {
					t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
				}
			}
			for k := uint64(1); k <= misses; k++ {
				s.Lookup(k << 40)
			}
			for k := uint64(1); k <= deletes; k++ {
				s.Delete(k)       // live
				s.Delete(k << 40) // absent
			}

			snap := tel.sink.Snapshot()
			c := snap.Counters
			want := map[string][2]int64{
				"inserts":       {c.Inserts, inserts + pathwise},
				"lookups":       {c.Lookups, inserts + pathwise + misses},
				"lookup hits":   {c.LookupHits, inserts + pathwise},
				"lookup misses": {c.LookupMisses, misses},
				"deletes":       {c.Deletes, 2 * deletes},
				"deletes hit":   {c.DeletesHit, deletes},
			}
			for what, gw := range want {
				if gw[0] != gw[1] {
					t.Errorf("%s = %d, want %d", what, gw[0], gw[1])
				}
			}
			if placed := c.InsertStatus["placed"]; placed != inserts+pathwise {
				t.Errorf("placed inserts = %d, want %d (%v)", placed, inserts+pathwise, c.InsertStatus)
			}
			hists := map[string]int64{
				"offchip_per_insert": inserts + pathwise,
				"offchip_lookup_pos": inserts + pathwise,
				"offchip_lookup_neg": misses,
				"offchip_per_delete": 2 * deletes,
				"latency_insert_ns":  inserts + pathwise,
				"latency_lookup_ns":  inserts + pathwise + misses,
				"latency_delete_ns":  2 * deletes,
			}
			for h, n := range hists {
				if got := snap.Histograms[h].Count; got != n {
					t.Errorf("%s count = %d, want %d", h, got, n)
				}
			}
			for _, h := range []string{"offchip_per_insert", "offchip_lookup_pos"} {
				if snap.Histograms[h].Sum == 0 {
					t.Errorf("%s recorded no off-chip accesses", h)
				}
			}
		})
	}
}

// TestPointOpsZeroAlloc guards the root point operations of the
// single-writer kinds, bare and behind Concurrent, with telemetry off and
// on: a hit and a miss lookup, an update insert and a miss delete allocate
// nothing.
func TestPointOpsZeroAlloc(t *testing.T) {
	for _, telemetry := range []bool{false, true} {
		var opts []Option
		if telemetry {
			opts = append(opts, WithTelemetry(NewTelemetry()))
		}
		for name, s := range singleKinds(t, 4096, append(opts, WithSeed(4))...) {
			for k := uint64(1); k <= 2000; k++ {
				s.Insert(k, k)
			}
			ops := map[string]func(){
				"lookup hit":   func() { s.Lookup(1234) },
				"lookup miss":  func() { s.Lookup(1 << 40) },
				"update":       func() { s.Insert(777, 1) },
				"delete miss":  func() { s.Delete(1 << 41) },
				"pathwise upd": func() { s.InsertPathwise(778, 2) },
			}
			for op, fn := range ops {
				if n := testing.AllocsPerRun(200, fn); n != 0 {
					t.Errorf("%s, telemetry %v: %s allocates %v per op, want 0", name, telemetry, op, n)
				}
			}
		}
	}
}

// TestConcurrentDo: Do hands the wrapped table to its callback under the
// write lock — the checkpoint hook of a server — and Range visits every
// live item.
func TestConcurrentDo(t *testing.T) {
	tab, err := New(1024, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab)
	c.Insert(5, 50)
	c.Insert(6, 60)
	var got uint64
	c.Do(func(s BatchStore) {
		if s != BatchStore(tab) {
			t.Errorf("Do handed %T %p, want the wrapped table", s, s)
		}
		v, ok := s.Lookup(5)
		if !ok {
			t.Error("Do: key missing")
		}
		got = v
	})
	if got != 50 {
		t.Fatalf("Do saw %d, want 50", got)
	}
	seen := map[uint64]uint64{}
	c.Range(func(k, v uint64) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 2 || seen[5] != 50 || seen[6] != 60 {
		t.Fatalf("Range saw %v", seen)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestConcurrentLiveGauges: once a table with telemetry is wrapped in
// Concurrent, every scrape reads its gauges from the current table, and
// the lookups that ran under the read lock count in the ops gauge.
func TestConcurrentLiveGauges(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		tel := NewTelemetry()
		var c *Concurrent
		if blocked {
			b, err := NewBlocked(2048, WithSeed(5), WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			b.Insert(1000, 1)
			c = NewConcurrent(b)
		} else {
			tab, err := New(2048, WithSeed(5), WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			tab.Insert(1000, 1)
			c = NewConcurrent(tab)
		}
		for k := uint64(1); k <= 300; k++ {
			c.Insert(k, k)
		}
		for k := uint64(1); k <= 50; k++ {
			c.Lookup(k)
		}
		var out bytes.Buffer
		if err := tel.WriteMetrics(&out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "mccuckoo_items 301\n") {
			t.Errorf("blocked=%v: items gauge not live:\n%s", blocked, out.String())
		}
		g := tel.sink.Snapshot().Gauges
		if g.Ops.Lookups != 50 || g.Ops.Hits != 50 || g.Ops.Inserts != 301 {
			t.Errorf("blocked=%v: ops gauge %+v, want 301 inserts and 50 lookups, all hits", blocked, g.Ops)
		}
	}
}

// TestConcurrentManyWriters checks the contract a server relies on: Insert
// and Delete may come from several goroutines at once, because they
// serialize on the write lock, while readers run alongside. Two writers
// own disjoint key ranges; the final contents must equal the union of
// their models, and a reader must never see a value that was not written
// for its key. A scraper reads the live gauges throughout.
func TestConcurrentManyWriters(t *testing.T) {
	const perWriter = 1500
	for _, blocked := range []bool{false, true} {
		t.Run(fmt.Sprintf("blocked=%v", blocked), func(t *testing.T) {
			tel := NewTelemetry()
			var c *Concurrent
			if blocked {
				b, err := NewBlocked(8192, WithSeed(21), WithTelemetry(tel))
				if err != nil {
					t.Fatal(err)
				}
				c = NewConcurrent(b)
			} else {
				tab, err := New(8192, WithSeed(21), WithTelemetry(tel))
				if err != nil {
					t.Fatal(err)
				}
				c = NewConcurrent(tab)
			}
			// value encodes the key and a round, so a reader can check
			// that whatever it sees belongs to the key it asked for.
			value := func(k, round uint64) uint64 { return k<<8 | round }
			models := make([]map[uint64]uint64, 2)
			var writers, readers sync.WaitGroup
			stop := make(chan struct{})
			for w := range models {
				model := make(map[uint64]uint64)
				models[w] = model
				base := uint64(w)*perWriter + 1
				writers.Add(1)
				go func() {
					defer writers.Done()
					for round := uint64(1); round <= 3; round++ {
						for k := base; k < base+perWriter; k++ {
							switch {
							case round == 2 && k%3 == 0:
								c.Delete(k)
								delete(model, k)
							case round == 3 && k%3 == 0:
								// stays deleted
							default:
								if r := c.Insert(k, value(k, round)); r.Status == Failed {
									t.Errorf("insert %d failed", k)
									return
								}
								model[k] = value(k, round)
							}
						}
					}
				}()
			}
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for k := uint64(1); k <= 2*perWriter; k += 7 {
							if v, ok := c.Lookup(k); ok && v>>8 != k {
								t.Errorf("Lookup(%d) = %#x, a value of another key", k, v)
								return
							}
						}
					}
				}()
			}
			readers.Add(1)
			go func() {
				defer readers.Done()
				// A scrape walks the whole table under the write lock, so a
				// few dozen interleave with the writers without starving
				// them.
				for i := 0; i < 40; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := tel.WriteMetrics(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			writers.Wait()
			close(stop)
			readers.Wait()

			want := 0
			for _, model := range models {
				want += len(model)
				for k, v := range model {
					if got, ok := c.Lookup(k); !ok || got != v {
						t.Fatalf("Lookup(%d) = %#x, %v; want %#x", k, got, ok, v)
					}
				}
			}
			if c.Len() != want {
				t.Fatalf("Len = %d, want %d", c.Len(), want)
			}
			for k := uint64(3); k <= 2*perWriter; k += 3 {
				if _, ok := c.Lookup(k); ok {
					t.Fatalf("deleted key %d still present", k)
				}
			}
		})
	}
}
