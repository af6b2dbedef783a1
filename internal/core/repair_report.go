package core

import (
	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

// RepairReport summarizes what one Repair pass changed; it is defined in
// package kv so the telemetry layer can record reports without importing
// the tables.
type RepairReport = kv.RepairReport

// installCounters counts the cells where next differs from prev, charging
// one on-chip write per changed cell.
func installCounters(prev, next *bitpack.Counters, meter *memmodel.Meter) int {
	fixed := 0
	for i := 0; i < prev.Len(); i++ {
		if prev.Get(i) != next.Get(i) {
			fixed++
		}
	}
	meter.WriteOn(int64(fixed))
	return fixed
}

// installFlags counts the bits where next differs from prev, charging one
// off-chip write per changed bit (flags live with the buckets).
func installFlags(prev, next *bitpack.Bitset, meter *memmodel.Meter) int {
	fixed := 0
	for i := 0; i < prev.Len(); i++ {
		if prev.Get(i) != next.Get(i) {
			fixed++
		}
	}
	meter.WriteOff(int64(fixed))
	return fixed
}
