package core

import (
	"bytes"
	"testing"
)

// TestHugePageTableFillGrowRoundTrip: a table big enough for huge-page
// advice (8 MiB of cells) fills to 0.90 with its invariants intact, and
// every key is found again after Grow and after a snapshot round trip.
func TestHugePageTableFillGrowRoundTrip(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 174763, Seed: 63, AssumeUniqueKeys: true, StashEnabled: true})
	keys := fillKeys(64, int(0.90*float64(tab.Capacity())))
	for _, k := range keys {
		tab.Insert(k, ^k)
	}
	requireAll := func(stage string, tab *Table) {
		t.Helper()
		checkInv(t, tab)
		for _, k := range keys {
			if v, ok := tab.Lookup(k); !ok || v != ^k {
				t.Fatalf("%s: key %#x = (%#x, %v), want (%#x, true)", stage, k, v, ok, ^k)
			}
		}
	}
	requireAll("fill", tab)
	if err := tab.Grow(1.25); err != nil {
		t.Fatal(err)
	}
	requireAll("Grow", tab)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireAll("snapshot round trip", loaded)
}
