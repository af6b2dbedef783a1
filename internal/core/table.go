package core

import (
	"math/rand/v2"

	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/stash"
)

// Table is the single-slot McCuckoo hash table (d hash functions, one item
// per bucket, one 2-bit counter per bucket for d = 3).
//
// Storage model: the key/value arrays and the stash flags are "off-chip";
// the counter array is "on-chip". Off-chip bucket accesses and on-chip
// counter accesses are charged to the Meter separately. The table is not
// safe for concurrent use; wrap it in Concurrent for one-writer-many-readers
// access.
//
// Reads are charged where they happen: t.meter.ReadOn(1) before a counter
// load, t.meter.ReadOff(1) before a bucket load, with the bucket's value
// and stash flag travelling free with its key. A per-read wrapper would not
// inline (a meter charge alone takes 71 of the inliner's budget of 80), and
// the path search and placement loops make several reads per operation.
// Writes go through the sanctioned setters below.
type Table struct {
	cfg    Config
	family *hashutil.Family
	meter  memmodel.Meter
	rng    *rand.Rand

	// Off-chip main table, flat-indexed by table*n + bucket. Key and value
	// are interleaved so one bucket is one 16-byte cell: a lookup hit reads
	// the value from the cache line the key probe already pulled in, which
	// is also how the paper's off-chip model works (the value travels with
	// the bucket in a single access).
	cells []kv.Entry
	// flags are the 1-bit stash flags stored alongside each bucket
	// off-chip (§III.E). Reading a bucket returns its flag for free;
	// setting a flag costs one off-chip write. Stale flags only ever
	// cost extra stash probes, never correctness — but only if every
	// mutation goes through the charged setters below.
	//
	//mcvet:restricted flags
	flags *bitpack.Bitset

	// On-chip counter array: counters.Get(i) is the number of copies the
	// item in bucket i has, 0 for empty, tombstoneVal for deleted marks.
	// Counter transitions carry the paper's invariants (never overwrite a
	// counter-1 bucket; decrement only on kick-out or delete), so raw
	// writes are restricted to the sanctioned setters.
	//
	//mcvet:restricted counters
	counters     *bitpack.Counters
	tombstoneVal uint64 // 0 when tombstones are disabled
	// kickCounts backs the MinCounter resolver (5-bit on-chip counters,
	// one per bucket). Nil under RandomWalk.
	//
	//mcvet:restricted kickcounts
	kickCounts *bitpack.Counters
	// bfsQueue and bfsPath are the path search's scratch (see findPath),
	// reused across searches so a steady-state insert allocates nothing.
	bfsQueue []bfsNode
	bfsPath  []PathMove

	overflow *stash.Stash
	// deletedAny flips when the first ResetCounters deletion happens;
	// from then on the zero-counter lookup shortcut and the counter-based
	// stash pre-screen are disabled (§III.F).
	deletedAny bool

	size            int // distinct items in the main table
	copiesTotal     int // live physical copies in the main table
	redundantWrites int64
	stats           kv.Stats
	// growing guards the auto-grow policy against re-entry while Grow's
	// own reinsertions stash items.
	growing bool
}

// New creates a single-slot McCuckoo table. As the constructor it owns the
// initial installation of every restricted array.
//
//mcvet:setter counters flags kickcounts
func New(cfg Config) (*Table, error) {
	if err := cfg.normalize(false); err != nil {
		return nil, err
	}
	family, err := newFamily(cfg)
	if err != nil {
		return nil, err
	}
	buckets := cfg.D * cfg.BucketsPerTable
	counters, err := bitpack.NewCounters(buckets, cfg.counterWidth())
	if err != nil {
		return nil, err
	}
	flags, err := bitpack.NewBitset(buckets)
	if err != nil {
		return nil, err
	}
	cells := make([]kv.Entry, buckets)
	adviseHugePages(cells)
	t := &Table{
		cfg:      cfg,
		family:   family,
		rng:      rand.New(rand.NewPCG(cfg.Seed, hashutil.Mix64(cfg.Seed+2))),
		cells:    cells,
		flags:    flags,
		counters: counters,
	}
	if cfg.Deletion == Tombstone {
		t.tombstoneVal = uint64(cfg.D) + 1
	}
	if cfg.Policy == kv.MinCounter {
		t.kickCounts, err = bitpack.NewCounters(buckets, 5)
		if err != nil {
			return nil, err
		}
	}
	if cfg.StashEnabled {
		t.overflow, err = stash.New(4, cfg.StashMax, cfg.Seed, &t.meter)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// pickVictimTable chooses which candidate to evict from during the random
// walk: uniformly at random under RandomWalk, or the candidate with the
// smallest 5-bit kick counter under MinCounter. Both avoid bouncing straight
// back to prevTable. Saturating the kick counter here is the only sanctioned
// kickCounts mutation outside construction and rebuild.
//
//mcvet:hotpath
//mcvet:setter kickcounts
func (t *Table) pickVictimTable(cand []int, prevTable int) int {
	if t.kickCounts != nil {
		best, bestCount := -1, uint64(1<<62)
		for i := range cand {
			if i == prevTable {
				continue
			}
			t.meter.ReadOn(1)
			c := t.kickCounts.Get(t.bucketIndex(i, cand[i]))
			if c < bestCount || (c == bestCount && t.rng.IntN(2) == 0) {
				best, bestCount = i, c
			}
		}
		bi := t.bucketIndex(best, cand[best])
		if v := t.kickCounts.Get(bi); v < t.kickCounts.Max() {
			t.kickCounts.Set(bi, v+1)
			t.meter.WriteOn(1)
		}
		return best
	}
	for {
		i := t.rng.IntN(len(cand))
		if i != prevTable {
			return i
		}
	}
}

// bucketIndex returns the flat index of bucket `bucket` in subtable `table`.
//
//mcvet:hotpath
func (t *Table) bucketIndex(table, bucket int) int {
	return table*t.cfg.BucketsPerTable + bucket
}

// setCounter writes an on-chip counter, charging the access. It is the
// sanctioned mutation path for the counter array; callers are responsible
// for the transition being one the paper allows.
//
//mcvet:hotpath
//mcvet:setter counters
func (t *Table) setCounter(table, bucket int, v uint64) {
	t.meter.WriteOn(1)
	t.counters.Set(t.bucketIndex(table, bucket), v)
}

// isFree reports whether a counter value means the bucket may be written by
// an insertion: empty, or marked deleted in tombstone mode.
//
//mcvet:hotpath
func (t *Table) isFree(counter uint64) bool {
	return counter == 0 || (t.tombstoneVal != 0 && counter == t.tombstoneVal)
}

// writeBucket performs one off-chip bucket write.
//
//mcvet:hotpath
func (t *Table) writeBucket(table, bucket int, e kv.Entry) {
	t.meter.WriteOff(1)
	t.cells[t.bucketIndex(table, bucket)] = e
}

// setStashFlag raises the stash flag of flat bucket idx, charging the
// off-chip write only on an actual 0→1 transition. It is the sanctioned
// mutation path for flags on the insert side.
//
//mcvet:hotpath
//mcvet:setter flags
func (t *Table) setStashFlag(idx int) {
	if !t.flags.Get(idx) {
		t.flags.Set(idx)
		t.meter.WriteOff(1)
	}
}

// clearStashFlag lowers the stash flag of flat bucket idx, charging the
// off-chip write only on an actual 1→0 transition. Only flag-refresh and
// rebuild paths may lower flags: a premature clear would create stash
// false negatives, which break the lookup contract.
//
//mcvet:setter flags
func (t *Table) clearStashFlag(idx int) {
	if t.flags.Get(idx) {
		t.flags.Clear(idx)
		t.meter.WriteOff(1)
	}
}

// Len returns the number of distinct live items, stash included.
func (t *Table) Len() int { return t.size + t.StashLen() }

// Capacity returns the total number of buckets.
func (t *Table) Capacity() int { return t.cfg.D * t.cfg.BucketsPerTable }

// LoadRatio returns distinct items over table size, the paper's load metric.
func (t *Table) LoadRatio() float64 { return float64(t.Len()) / float64(t.Capacity()) }

// Meter exposes the memory-traffic counters.
func (t *Table) Meter() *memmodel.Meter { return &t.meter }

// Stats exposes lifetime operation counts.
func (t *Table) Stats() kv.Stats { return t.stats }

// StashLen returns the current stash population.
func (t *Table) StashLen() int {
	if t.overflow == nil {
		return 0
	}
	return t.overflow.Len()
}

// Copies returns the number of live physical copies currently stored in the
// main table (>= Len() - StashLen(); the surplus is the redundancy).
func (t *Table) Copies() int { return t.copiesTotal }

// RedundantWrites returns the lifetime count of proactive redundant copy
// writes (Theorem 2 bounds this by S·(1 + Σ_{t=3..d} 1/t)).
func (t *Table) RedundantWrites() int64 { return t.redundantWrites }

// OnChipBytes returns the size of the on-chip counter array.
func (t *Table) OnChipBytes() int { return t.counters.SizeBytes() }

// reseedRNG re-derives the random-walk generator after a snapshot load so
// subsequent kick sequences are deterministic for the (seed, size) pair.
func (t *Table) reseedRNG() {
	t.rng = rand.New(rand.NewPCG(t.cfg.Seed, hashutil.Mix64(t.cfg.Seed+uint64(t.size)+2)))
}
