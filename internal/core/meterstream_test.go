package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

var updateMeterStream = flag.Bool("update-meterstream", false, "rewrite testdata/meterstream.golden from the current code")

const meterStreamGolden = "testdata/meterstream.golden"

// streamTable is the slice of the table API the access-stream drive uses;
// Table and BlockedTable both provide it.
type streamTable interface {
	Insert(key, value uint64) kv.Outcome
	Lookup(key uint64) (uint64, bool)
	Delete(key uint64) bool
	Meter() *memmodel.Meter
	Capacity() int
}

// streamRecorder hashes the expanded sequence of access kinds a meter sees:
// a hook call (kind, n) contributes n accesses of kind, so batching charges
// into fewer hook calls does not change the digest, but any change in which
// accesses are charged or in their order does. internal/fpga replays exactly
// this sequence for the Fig. 15–16 latency model.
type streamRecorder struct {
	sum    hash.Hash64
	counts [4]int64
}

func (r *streamRecorder) attach(m *memmodel.Meter) {
	r.sum = fnv.New64a()
	m.Hook = func(kind memmodel.AccessKind, n int64) {
		for i := int64(0); i < n; i++ {
			r.sum.Write([]byte{byte(kind)})
		}
		r.counts[kind] += n
	}
}

func (r *streamRecorder) line(name string) string {
	return fmt.Sprintf("%s offread=%d offwrite=%d onread=%d onwrite=%d fnv64a=%016x",
		name, r.counts[memmodel.OffRead], r.counts[memmodel.OffWrite],
		r.counts[memmodel.OnRead], r.counts[memmodel.OnWrite], r.sum.Sum64())
}

// driveStream fills tab to 90% load, then runs a seeded mix of lookup hits,
// lookup misses, updates, deletes and fresh (colliding) inserts.
func driveStream(t *testing.T, tab streamTable, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	// Inserted keys are odd, so an even key is a guaranteed miss.
	fresh := func() uint64 { return rng.Uint64() | 1 }
	var live []uint64
	for len(live) < int(0.9*float64(tab.Capacity())) {
		k := fresh()
		if out := tab.Insert(k, k); out.Status == kv.Failed {
			t.Fatalf("fill insert failed at %d items", len(live))
		}
		live = append(live, k)
	}
	for op := 0; op < 6000; op++ {
		switch r := rng.IntN(10); {
		case r < 3: // lookup hit
			k := live[rng.IntN(len(live))]
			if _, ok := tab.Lookup(k); !ok {
				t.Fatalf("op %d: live key %#x not found", op, k)
			}
		case r < 5: // lookup miss
			if _, ok := tab.Lookup(fresh() &^ 1); ok {
				t.Fatalf("op %d: absent key found", op)
			}
		case r < 6: // update
			k := live[rng.IntN(len(live))]
			if out := tab.Insert(k, k+uint64(op)); out.Status != kv.Updated {
				t.Fatalf("op %d: update of %#x: %v", op, k, out.Status)
			}
		case r < 8: // delete
			i := rng.IntN(len(live))
			if !tab.Delete(live[i]) {
				t.Fatalf("op %d: delete of live key %#x failed", op, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // fresh insert at high load: collisions and kick-outs
			k := fresh()
			if out := tab.Insert(k, k); out.Status == kv.Failed {
				t.Fatalf("op %d: insert failed", op)
			}
			live = append(live, k)
		}
	}
}

// TestMeterAccessStream pins the exact sequence of modelled memory accesses
// each resolver and deletion mode charges over a seeded workload. Totals
// alone would let a refactor reorder counter and bucket accesses unnoticed;
// the digest does not. Regenerate with -update-meterstream only for a change
// that is meant to alter the modelled accesses.
func TestMeterAccessStream(t *testing.T) {
	base := Config{BucketsPerTable: 1024, StashEnabled: true}
	cases := []struct {
		name    string
		blocked bool
		cfg     func(Config) Config
	}{
		{"random-walk/reset", false, func(c Config) Config { c.Seed = 11; return c }},
		{"min-counter/reset", false, func(c Config) Config { c.Seed = 12; c.Policy = kv.MinCounter; return c }},
		{"bfs/reset", false, func(c Config) Config { c.Seed = 13; c.Policy = kv.BFS; return c }},
		{"random-walk/tombstone", false, func(c Config) Config { c.Seed = 14; c.Deletion = Tombstone; return c }},
		{"bfs/tombstone", false, func(c Config) Config {
			c.Seed = 15
			c.Policy = kv.BFS
			c.Deletion = Tombstone
			return c
		}},
		{"blocked/random-walk/reset", true, func(c Config) Config { c.Seed = 16; c.BucketsPerTable = 256; return c }},
	}
	var got []string
	for _, tc := range cases {
		cfg := tc.cfg(base)
		var tab streamTable
		if tc.blocked {
			tab = mustNewBlocked(t, cfg)
		} else {
			tab = mustNew(t, cfg)
		}
		var rec streamRecorder
		rec.attach(tab.Meter())
		driveStream(t, tab, cfg.Seed)
		got = append(got, rec.line(tc.name))
	}
	if *updateMeterStream {
		body := "# Expanded meter access streams of TestMeterAccessStream; regenerate with\n" +
			"# go test ./internal/core -run TestMeterAccessStream -update-meterstream\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(filepath.FromSlash(meterStreamGolden), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldenLines(t, meterStreamGolden)
	if len(want) != len(got) {
		t.Fatalf("golden has %d streams, test produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("access stream changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

func readGoldenLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
