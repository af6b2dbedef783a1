// Package telemetry is the always-on observability layer for the McCuckoo
// tables. A Sink accumulates the signals the paper's evaluation is built
// around — off-chip accesses per operation, kick-path lengths, the copy-count
// (redundancy) distribution — plus operational latency histograms, event
// counters, and a flight-recorder ring of the last N operations, and exports
// all of it in Prometheus text format, JSON, and expvar.
//
// Design constraints, in order:
//
//  1. A nil *Sink is the disabled state. Every method is nil-safe and the
//     owning tables branch on the nil before doing any work, so a table
//     without telemetry pays one predictable branch and zero allocations on
//     its hot path (asserted by TestDisabledPathZeroAlloc and the
//     BenchmarkTelemetry* gate in ci.sh).
//  2. An enabled Sink is lock-free on the record path: counters and
//     histogram buckets are atomics, the flight recorder is a seqlock ring,
//     and Event is a value — recording allocates nothing either.
//  3. Gauges (load ratio, copy-count distribution, stash depth/flag density)
//     are pulled at scrape time from a source the owning table registers, or
//     pushed explicitly via StoreGauges by single-writer tables that cannot
//     be sampled concurrently.
//
// The package sits below the public API, internal/shard and internal/core:
// shard feeds a Sink from inside its per-shard critical sections,
// core.Concurrent from inside its table lock, the public wrapper for the
// bare single-writer tables, and cmd/mctrace from its replay loop.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// Op is the operation kind of one recorded event.
type Op uint8

const (
	OpInsert Op = iota
	OpLookup
	OpDelete
	opCount
)

// String returns the Prometheus label value for the op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpLookup:
		return "lookup"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Event is one recorded operation. It is a plain value — building and
// recording one performs no allocation.
type Event struct {
	Op Op `json:"-"`
	// Status is the kv.Status of an insert (unused otherwise).
	Status uint8 `json:"-"`
	// Hit reports a found key: lookup hit, or delete that removed.
	Hit bool `json:"hit"`
	// Shard is the owning shard index, -1 for unsharded tables.
	Shard int32 `json:"shard"`
	// Kicks is the insert's kick-path length.
	Kicks int32 `json:"kicks"`
	// OffChip is the number of off-chip memory accesses the operation
	// performed (reads + writes).
	OffChip int64 `json:"off_chip"`
	// Nanos is the operation latency in nanoseconds (0 when the caller did
	// not time the op, e.g. inside batched operations).
	Nanos int64 `json:"nanos"`
	// KeyHash is a mixed hash of the operated key — enough to correlate
	// events on the same key without recording the key itself.
	KeyHash uint64 `json:"key_hash"`
}

// Gauges is the point-in-time state a scrape reports alongside the
// accumulated counters. The owning table supplies it, either live through
// SetGaugeSource (thread-safe tables) or pushed through StoreGauges
// (single-writer tables).
type Gauges struct {
	Items    int `json:"items"`
	Capacity int `json:"capacity"`
	// LoadRatio is distinct items over capacity, the paper's load metric.
	LoadRatio float64 `json:"load_ratio"`
	StashLen  int     `json:"stash_len"`
	// StashFlagDensity is the fraction of off-chip buckets whose stash flag
	// is set — the false-positive pressure on the stash pre-screen.
	StashFlagDensity float64 `json:"stash_flag_density"`
	// CopyHist[v] counts live items with v copies (index 0 unused): the
	// paper's redundancy balance. Fractions of occupied buckets at each V
	// are derived from it at export time.
	CopyHist []int64 `json:"copy_histogram,omitempty"`
	// Shards is the partition count, 0 for unsharded tables.
	Shards int `json:"shards,omitempty"`
	// MinShardLoad/MaxShardLoad expose the routing balance (0 when
	// unsharded or when every shard is empty).
	MinShardLoad float64 `json:"min_shard_load,omitempty"`
	MaxShardLoad float64 `json:"max_shard_load,omitempty"`
	// Ops are the table's lifetime operation counts, including the
	// auto-grow trigger outcomes.
	Ops kv.Stats `json:"ops"`
	// Detail carries table-specific extra state for the JSON endpoint
	// (e.g. per-shard statistics). Ignored by the Prometheus exporter.
	Detail any `json:"detail,omitempty"`
}

// Options configures a Sink.
type Options struct {
	// EventBuffer is the flight-recorder capacity (rounded up to a power of
	// two; default 1024, minimum 16).
	EventBuffer int
}

// Sink accumulates telemetry. All methods are safe for concurrent use and
// safe on a nil receiver (the disabled state).
type Sink struct {
	ops          [opCount]atomic.Int64
	insertStatus [4]atomic.Int64 // by kv.Status
	lookupHits   atomic.Int64
	lookupMisses atomic.Int64
	deletesHit   atomic.Int64

	latency   [opCount]Hist // ns, timed single ops only
	kicks     Hist          // per insert
	offInsert Hist          // off-chip accesses per insert
	offDelete Hist          // off-chip accesses per delete
	offPos    Hist          // off-chip accesses per positive lookup
	offNeg    Hist          // off-chip accesses per negative lookup

	corruptLoads atomic.Int64
	repairs      atomic.Int64
	repairDirty  atomic.Int64 // repairs that changed anything
	repairFixed  [6]atomic.Int64

	ring *Ring

	mu     sync.RWMutex
	source func() Gauges // live gauge source, nil when gauges are pushed
	cached Gauges        // last StoreGauges push

	started time.Time
}

// repairFixed slot names, aligned with the [6]atomic.Int64 above.
var repairKinds = [6]string{"counters", "flags", "hints", "aliens", "values", "stash_dropped"}

// New creates an enabled Sink.
func New(opts Options) *Sink {
	n := opts.EventBuffer
	if n <= 0 {
		n = 1024
	}
	return &Sink{ring: newRing(n), started: time.Now()}
}

// Enabled reports whether the sink records anything (false on nil).
func (s *Sink) Enabled() bool { return s != nil }

// Record accumulates one operation event: counters, the relevant histograms,
// and the flight recorder. It is lock-free and allocation-free.
func (s *Sink) Record(e Event) {
	if s == nil {
		return
	}
	op := e.Op
	if op >= opCount {
		return
	}
	s.ops[op].Add(1)
	switch op {
	case OpInsert:
		if e.Status < 4 {
			s.insertStatus[e.Status].Add(1)
		}
		s.kicks.Observe(int64(e.Kicks))
		s.offInsert.Observe(e.OffChip)
	case OpLookup:
		if e.Hit {
			s.lookupHits.Add(1)
			s.offPos.Observe(e.OffChip)
		} else {
			s.lookupMisses.Add(1)
			s.offNeg.Observe(e.OffChip)
		}
	case OpDelete:
		if e.Hit {
			s.deletesHit.Add(1)
		}
		s.offDelete.Observe(e.OffChip)
	}
	if e.Nanos > 0 {
		s.latency[op].Observe(e.Nanos)
	}
	s.ring.add(e)
}

// RecordInsert records one insert of key: its outcome, the off-chip
// accesses it made, and its latency in nanoseconds (0 when untimed, as for
// the elements of a batch). shard is the owning shard index, -1 for an
// unsharded table. RecordInsert, RecordLookup and RecordDelete are the one
// place a table operation becomes an Event.
func (s *Sink) RecordInsert(shard int, key uint64, o kv.Outcome, offChip, nanos int64) {
	if s == nil {
		return
	}
	s.Record(Event{
		Op: OpInsert, Status: uint8(o.Status), Shard: int32(shard),
		Kicks: int32(o.Kicks), OffChip: offChip, Nanos: nanos,
		KeyHash: hashutil.Mix64(key),
	})
}

// RecordLookup records one lookup of key; hit reports whether it was found.
// The other arguments are as for RecordInsert.
func (s *Sink) RecordLookup(shard int, key uint64, hit bool, offChip, nanos int64) {
	if s == nil {
		return
	}
	s.Record(Event{
		Op: OpLookup, Hit: hit, Shard: int32(shard),
		OffChip: offChip, Nanos: nanos, KeyHash: hashutil.Mix64(key),
	})
}

// RecordDelete records one delete of key; removed reports whether it was
// live. The other arguments are as for RecordInsert.
func (s *Sink) RecordDelete(shard int, key uint64, removed bool, offChip, nanos int64) {
	if s == nil {
		return
	}
	s.Record(Event{
		Op: OpDelete, Hit: removed, Shard: int32(shard),
		OffChip: offChip, Nanos: nanos, KeyHash: hashutil.Mix64(key),
	})
}

// RecordCorruptLoad counts one snapshot-load rejection (a *core.CorruptError).
func (s *Sink) RecordCorruptLoad() {
	if s == nil {
		return
	}
	s.corruptLoads.Add(1)
}

// RecordRepair accumulates one Repair pass report.
func (s *Sink) RecordRepair(r kv.RepairReport) {
	if s == nil {
		return
	}
	s.repairs.Add(1)
	if r.Any() {
		s.repairDirty.Add(1)
	}
	for i, n := range [6]int{r.CountersFixed, r.FlagsFixed, r.HintsFixed,
		r.AliensCleared, r.ValuesFixed, r.StashDropped} {
		if n != 0 {
			s.repairFixed[i].Add(int64(n))
		}
	}
}

// SetGaugeSource registers a live gauge source called at scrape time. The
// source must be safe for concurrent use (the sharded table's is: it reads
// under the per-shard locks). Passing nil reverts to pushed gauges.
func (s *Sink) SetGaugeSource(fn func() Gauges) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.source = fn
	s.mu.Unlock()
}

// StoreGauges pushes a gauge snapshot, for single-writer tables whose state
// cannot be read concurrently: the owning goroutine samples, scrapes serve
// the last sample.
func (s *Sink) StoreGauges(g Gauges) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cached = g
	s.mu.Unlock()
}

// gauges returns the freshest gauge view: the live source when registered,
// otherwise the last pushed snapshot.
func (s *Sink) gauges() Gauges {
	s.mu.RLock()
	src := s.source
	cached := s.cached
	s.mu.RUnlock()
	if src != nil {
		return src()
	}
	return cached
}

// Events returns the flight-recorder contents, oldest first.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	return s.ring.Events()
}

// counterSnapshot is the JSON view of the accumulated counters.
type counterSnapshot struct {
	Inserts      int64            `json:"inserts"`
	Lookups      int64            `json:"lookups"`
	Deletes      int64            `json:"deletes"`
	InsertStatus map[string]int64 `json:"insert_status"`
	LookupHits   int64            `json:"lookup_hits"`
	LookupMisses int64            `json:"lookup_misses"`
	DeletesHit   int64            `json:"deletes_hit"`
	CorruptLoads int64            `json:"corrupt_loads"`
	Repairs      int64            `json:"repairs"`
	RepairsDirty int64            `json:"repairs_dirty"`
	RepairFixed  map[string]int64 `json:"repair_fixed"`
}

func (s *Sink) counters() counterSnapshot {
	c := counterSnapshot{
		Inserts:      s.ops[OpInsert].Load(),
		Lookups:      s.ops[OpLookup].Load(),
		Deletes:      s.ops[OpDelete].Load(),
		InsertStatus: make(map[string]int64, 4),
		LookupHits:   s.lookupHits.Load(),
		LookupMisses: s.lookupMisses.Load(),
		DeletesHit:   s.deletesHit.Load(),
		CorruptLoads: s.corruptLoads.Load(),
		Repairs:      s.repairs.Load(),
		RepairsDirty: s.repairDirty.Load(),
		RepairFixed:  make(map[string]int64, 6),
	}
	for st := kv.Status(0); st < 4; st++ {
		c.InsertStatus[st.String()] = s.insertStatus[st].Load()
	}
	for i, name := range repairKinds {
		c.RepairFixed[name] = s.repairFixed[i].Load()
	}
	return c
}

// Snapshot is the full JSON view served at /debug/mccuckoo/stats.
type Snapshot struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Gauges        Gauges                  `json:"gauges"`
	Counters      counterSnapshot         `json:"counters"`
	Histograms    map[string]HistSnapshot `json:"histograms"`
}

// Snapshot assembles the current state. Nil-safe (returns a zero snapshot).
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Gauges:        s.gauges(),
		Counters:      s.counters(),
		Histograms: map[string]HistSnapshot{
			"latency_insert_ns":  s.latency[OpInsert].Snapshot(),
			"latency_lookup_ns":  s.latency[OpLookup].Snapshot(),
			"latency_delete_ns":  s.latency[OpDelete].Snapshot(),
			"kick_path_length":   s.kicks.Snapshot(),
			"offchip_per_insert": s.offInsert.Snapshot(),
			"offchip_per_delete": s.offDelete.Snapshot(),
			"offchip_lookup_pos": s.offPos.Snapshot(),
			"offchip_lookup_neg": s.offNeg.Snapshot(),
		},
	}
}
