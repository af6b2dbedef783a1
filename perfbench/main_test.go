package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mccuckoo"
)

// appendOp encodes o; byte-identical encodings mean identical op streams.
func appendOp(b []byte, o op) []byte {
	b = append(b, byte(o.kind))
	b = binary.LittleEndian.AppendUint32(b, o.idx)
	return binary.LittleEndian.AppendUint32(b, o.ver)
}

func streamBytes(s opStream, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = appendOp(b, s.next())
	}
	return b
}

func TestOpStreamsDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) opStream{
		"table-read":  func(seed uint64) opStream { return newReadGen(seed, 100_000) },
		"table-churn": func(seed uint64) opStream { return newChurnGen(seed, 50_000) },
		"wire-kv":     func(seed uint64) opStream { return newWireGen(seed, newKVModel(100_000)) },
		"cluster-rw":  func(seed uint64) opStream { return newClusterGen(seed, newKVModel(100_000)) },
	}
	for name, gen := range gens {
		a, b := streamBytes(gen(7), 200_000), streamBytes(gen(7), 200_000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
		if bytes.Equal(a, streamBytes(gen(8), 200_000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
	a1, a2 := newArrivals(7, 5000), newArrivals(7, 5000)
	for i := 0; i < 10_000; i++ {
		if a1.next() != a2.next() {
			t.Fatalf("arrival %d differs between two same-seed processes", i)
		}
	}
}

// TestSplitGeneratorsDisjoint checks that closed-loop clients never share a
// key, which is what lets each of them check its answers exactly.
func TestSplitGeneratorsDisjoint(t *testing.T) {
	m := newKVModel(10_007)
	for p, g := range newWireGen(3, m).split(16) {
		for i := 0; i < 20_000; i++ {
			if o := g.next(); o.idx < absentBase && int(o.idx)%16 != p {
				t.Fatalf("part %d generated key index %d", p, o.idx)
			}
		}
	}
}

func run(t *testing.T, c *runCtx) result {
	t.Helper()
	c.small = true
	c.out = io.Discard
	c.spansOut = filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := execute(c)
	if err != nil {
		t.Fatalf("%s: %v", c.workload, err)
	}
	return res
}

// TestCountMetricsRepeat runs each table workload traced twice with one seed:
// the paper's counts must come out identical.
func TestCountMetricsRepeat(t *testing.T) {
	for _, w := range []string{"table-read", "table-churn"} {
		a := run(t, &runCtx{workload: w, seed: 11, seconds: 1, trace: true})
		b := run(t, &runCtx{workload: w, seed: 11, seconds: 1, trace: true})
		if !a.Correct || !b.Correct {
			t.Fatalf("%s: traced run reported wrong answers", w)
		}
		checked := 0
		for name, m := range a.Metrics {
			if !strings.HasPrefix(name, "core.") && !strings.HasPrefix(name, "stash.") {
				continue
			}
			checked++
			if b.Metrics[name] != m {
				t.Errorf("%s: %s = %v, then %v", w, name, m.Value, b.Metrics[name].Value)
			}
		}
		if checked != 7 {
			t.Errorf("%s: compared %d count metrics, want 7", w, checked)
		}
	}
}

// corruptStore returns a wrong value for the nth successful lookup.
type corruptStore struct {
	mccuckoo.BatchStore
	n       int64
	lookups atomic.Int64
}

func (s *corruptStore) Lookup(key uint64) (uint64, bool) {
	v, ok := s.BatchStore.Lookup(key)
	if ok && s.lookups.Add(1) == s.n {
		v ^= 1
	}
	return v, ok
}

// poisonStore corrupts every lookup of one key: the key of the nth Insert
// counted across every store sharing p.
type poisonStore struct {
	mccuckoo.BatchStore
	p *poison
}

type poison struct {
	n       int64
	inserts atomic.Int64
	key     atomic.Uint64
	armed   atomic.Bool
}

func (s *poisonStore) Insert(key, value uint64) mccuckoo.InsertResult {
	if s.p.inserts.Add(1) == s.p.n {
		s.p.key.Store(key)
		s.p.armed.Store(true)
	}
	return s.BatchStore.Insert(key, value)
}

func (s *poisonStore) Lookup(key uint64) (uint64, bool) {
	v, ok := s.BatchStore.Lookup(key)
	if ok && s.p.armed.Load() && key == s.p.key.Load() {
		v ^= 1
	}
	return v, ok
}

func TestWrongValueFailsRun(t *testing.T) {
	// On the table and the single server, one wrong value must fail the
	// run. A cluster read answers from the first of several replicas whose
	// versions tie, so a value corrupted on one replica can go unseen; there
	// every replica corrupts one key written during the run, which the
	// read-back must catch.
	faults := map[string]func(s mccuckoo.BatchStore) mccuckoo.BatchStore{
		"table-read": func(s mccuckoo.BatchStore) mccuckoo.BatchStore { return &corruptStore{BatchStore: s, n: 50} },
		"wire-kv":    func(s mccuckoo.BatchStore) mccuckoo.BatchStore { return &corruptStore{BatchStore: s, n: 50} },
	}
	p := &poison{n: 3*5_000 + 30} // after the small run's preload on 3 nodes
	faults["cluster-rw"] = func(s mccuckoo.BatchStore) mccuckoo.BatchStore { return &poisonStore{s, p} }
	for w, wrap := range faults {
		c := &runCtx{workload: w, seed: 5, seconds: 1, wrap: wrap}
		res := run(t, c)
		if res.Correct || len(res.Metrics) != 0 {
			t.Errorf("%s: a corrupted value gave correct=%v with %d metrics", w, res.Correct, len(res.Metrics))
		}
		if c.wrong == 0 {
			t.Errorf("%s: no wrong answer counted", w)
		}
	}
	// The same runs without the fault are correct and report every metric.
	for w := range faults {
		res := run(t, &runCtx{workload: w, seed: 5, seconds: 1})
		if !res.Correct || len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: clean run gave correct=%v with %d metrics", w, res.Correct, len(res.Metrics))
		}
	}
}
