package kv

import "fmt"

// RepairReport summarizes what one Repair pass changed. A zero report (Any()
// false apart from the before/after snapshots) means the derived state was
// already consistent with the off-chip content. The snake_case JSON names
// are the stable wire contract of the telemetry JSON endpoints.
type RepairReport struct {
	// CountersFixed is the number of counter cells whose rebuilt value
	// differs from the stored one.
	CountersFixed int `json:"counters_fixed,omitempty"`
	// FlagsFixed is the number of stash-flag bits resynchronized.
	FlagsFixed int `json:"flags_fixed,omitempty"`
	// HintsFixed is the number of slot-hint vectors rewritten (blocked
	// tables only).
	HintsFixed int `json:"hints_fixed,omitempty"`
	// AliensCleared is the number of non-free counters cleared because the
	// bucket's stored key does not hash there.
	AliensCleared int `json:"aliens_cleared,omitempty"`
	// ValuesFixed is the number of copies whose value diverged from the
	// key's consensus value and was rewritten.
	ValuesFixed int `json:"values_fixed,omitempty"`
	// StashDropped is the number of stash entries removed because the key
	// is live in the main table.
	StashDropped int `json:"stash_dropped,omitempty"`
	// Size and copy bookkeeping, before and after the rebuild.
	SizeBefore   int `json:"size_before"`
	SizeAfter    int `json:"size_after"`
	CopiesBefore int `json:"copies_before"`
	CopiesAfter  int `json:"copies_after"`
}

// Any reports whether the pass changed anything.
func (r RepairReport) Any() bool {
	return r.CountersFixed != 0 || r.FlagsFixed != 0 || r.HintsFixed != 0 ||
		r.AliensCleared != 0 || r.ValuesFixed != 0 || r.StashDropped != 0 ||
		r.SizeBefore != r.SizeAfter || r.CopiesBefore != r.CopiesAfter
}

// Merge accumulates o into r, summing every field — used to aggregate
// per-shard reports.
func (r RepairReport) Merge(o RepairReport) RepairReport {
	r.CountersFixed += o.CountersFixed
	r.FlagsFixed += o.FlagsFixed
	r.HintsFixed += o.HintsFixed
	r.AliensCleared += o.AliensCleared
	r.ValuesFixed += o.ValuesFixed
	r.StashDropped += o.StashDropped
	r.SizeBefore += o.SizeBefore
	r.SizeAfter += o.SizeAfter
	r.CopiesBefore += o.CopiesBefore
	r.CopiesAfter += o.CopiesAfter
	return r
}

// String renders the report for logs.
func (r RepairReport) String() string {
	return fmt.Sprintf("repair{counters:%d flags:%d hints:%d aliens:%d values:%d stash-dropped:%d size:%d→%d copies:%d→%d}",
		r.CountersFixed, r.FlagsFixed, r.HintsFixed, r.AliensCleared, r.ValuesFixed,
		r.StashDropped, r.SizeBefore, r.SizeAfter, r.CopiesBefore, r.CopiesAfter)
}
