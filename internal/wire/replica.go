package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"mccuckoo"
	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/hashutil"
)

// This file is the server half of the cluster tier (DESIGN.md §11):
// Replicated wraps any concurrency-safe BatchStore with the per-key
// sequence-number bookkeeping that makes multi-copy replication converge —
// newest-write-wins applies, deletion tombstones, an op-log ring feeding
// SUBSCRIBE streams, and an order-independent state digest that lets two
// replicas prove byte-identical convergence over the wire.

// Ranger is the iteration capability of the concrete table kinds; a
// Replicated over a Ranger seeds its per-key bookkeeping from preloaded
// data (a -load snapshot) that predates sequence tracking.
type Ranger interface {
	Range(fn func(key, value uint64) bool)
}

var _ Ranger = (*mccuckoo.Concurrent)(nil)

// seededSeq is the sequence number assigned to keys found in the store
// before any tracked write: older than every real write (real sequence
// numbers are hybrid-clock values), so any replicated entry supersedes
// them.
const seededSeq = 1

// ReplicaConfig configures a Replicated. The zero value is usable.
type ReplicaConfig struct {
	// OplogSize is the op-log ring capacity in entries (default 65536). A
	// subscriber that falls more than this many mutations behind is forced
	// into a full resynchronization.
	OplogSize int
}

// Replicated wraps a BatchStore with multi-copy replication state. All
// mutations — local (the plain BatchStore methods), pushed (REPLICATE
// requests: cluster writes and read-repair), and streamed (op-log
// subscriptions) — funnel through one versioned apply: an entry is applied
// only if its sequence number is strictly newer than the key's current one,
// so replicas that receive the same entries in any order converge to the
// same state. Deletes leave a tombstone carrying the deletion's sequence
// number, which stops a stale PUT from resurrecting the key.
//
// The wrapped store must itself be safe for concurrent use (Sharded, or a
// single-writer kind behind mccuckoo.Concurrent); Replicated adds its own lock only
// around the versioning bookkeeping, and read-only Store methods pass
// through unlocked.
type Replicated struct {
	inner mccuckoo.BatchStore

	mu sync.RWMutex
	//mcvet:guardedby mu
	seqs map[uint64]uint64 // key -> meta: seq<<1 | tombstone bit
	//mcvet:guardedby mu
	applied uint64 // highest sequence number applied
	//mcvet:guardedby mu
	localSeq uint64 // last sequence number issued or seen; local writes use localSeq+1
	//mcvet:guardedby mu
	baseSeq uint64 // mutations at or below this predate the op log
	//mcvet:guardedby mu
	digest uint64 // XOR of DigestTerm over every tracked key
	//mcvet:guardedby mu
	tombs int
	//mcvet:guardedby mu
	log *opLog
	//mcvet:guardedby mu
	subs map[*logSub]struct{}
	// filter restricts DigestRange to keys the requesting peer co-owns
	// with this node (set by the cluster tier; nil means no restriction).
	// Kept ring-agnostic: package wire never imports the ring.
	//mcvet:guardedby mu
	filter func(peer string, key uint64) bool

	entriesApplied atomic.Int64
	entriesStale   atomic.Int64
	applyFailures  atomic.Int64
	repairApplied  atomic.Int64
	fullSyncs      atomic.Int64
	sidecarDrops   atomic.Int64
}

var _ mccuckoo.BatchStore = (*Replicated)(nil)

// NewReplicated wraps inner. If inner is non-empty and supports Range (all
// concrete kinds and Concurrent do), its keys are seeded at an ancient
// sequence number so they participate in state dumps and version
// comparisons; LoadSidecar afterwards replaces the seeded bookkeeping with
// the persisted one.
func NewReplicated(inner mccuckoo.BatchStore, cfg ReplicaConfig) *Replicated {
	if cfg.OplogSize <= 0 {
		cfg.OplogSize = 1 << 16
	}
	r := &Replicated{
		inner: inner,
		seqs:  make(map[uint64]uint64),
		log:   newOpLog(cfg.OplogSize),
		subs:  make(map[*logSub]struct{}),
	}
	if rng, ok := inner.(Ranger); ok && inner.Len() > 0 {
		r.mu.Lock()
		meta := uint64(seededSeq) << 1
		rng.Range(func(key, value uint64) bool {
			r.seqs[key] = meta
			r.digest ^= DigestTerm(key, value, meta)
			return true
		})
		r.applied = seededSeq
		r.localSeq = seededSeq
		r.baseSeq = seededSeq
		r.mu.Unlock()
	}
	return r
}

// Inner returns the wrapped store (for checkpointing by the owner).
func (r *Replicated) Inner() mccuckoo.BatchStore { return r.inner }

// Applied returns the highest sequence number applied so far — the resume
// point a subscriber presents to its peers.
func (r *Replicated) Applied() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.applied
}

// Digest returns the order-independent state checksum: XOR over every
// tracked key of DigestTerm(key, value, meta). Two replicas tracking the
// same key set hold byte-identical data iff their digests match.
func (r *Replicated) Digest() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.digest
}

// DigestTerm is one key's contribution to the replica digest. Exported so
// a convergence check can compute the expected digest from wire reads.
// value must be 0 for tombstones; meta is seq<<1 with the low bit set for
// tombstones (the encoding VGet reports).
//
//mcvet:deterministic
func DigestTerm(key, value, meta uint64) uint64 {
	return hashutil.Mix64(hashutil.Mix64(hashutil.Mix64(key)^value) ^ meta)
}

// SetDigestFilter installs the ownership filter applied by DigestRange: a
// key contributes to a peer's range digest only when fn(peer, key) is true.
// The cluster tier sets fn to "peer owns key AND this node owns key" so the
// two sides of an anti-entropy exchange digest the same key set; nil
// removes the restriction.
func (r *Replicated) SetDigestFilter(fn func(peer string, key uint64) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.filter = fn
}

// DigestRange computes the XOR digest over tracked keys in [lo, hi] that
// pass the digest filter for peer, plus their count. When the count is at
// most maxKeys the keys are enumerated as (key, meta) pairs — the
// reconciliation unit for anti-entropy bisection. maxKeys <= 0 disables
// enumeration.
func (r *Replicated) DigestRange(peer string, lo, hi uint64, maxKeys int) (digest, count uint64, keys []DigestEntry) {
	if maxKeys > MaxDigestKeys {
		maxKeys = MaxDigestKeys
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, meta := range r.seqs {
		if k < lo || k > hi {
			continue
		}
		if r.filter != nil && !r.filter(peer, k) {
			continue
		}
		var val uint64
		if meta&1 == 0 {
			if v, ok := r.inner.Lookup(k); ok {
				val = v
			}
		}
		digest ^= DigestTerm(k, val, meta)
		count++
		if maxKeys > 0 && len(keys) < maxKeys {
			keys = append(keys, DigestEntry{Key: k, Meta: meta})
		}
	}
	if uint64(len(keys)) < count {
		// The range overflowed the enumeration budget: the caller must
		// bisect, so a partial listing is only misleading.
		keys = nil
	}
	return digest, count, keys
}

// CompactTombstones drops tombstones whose deletion sequence number is
// strictly below beforeSeq, returning how many were reclaimed. The caller
// owns the safety argument: a tombstone may only be dropped once every
// replica has applied past its sequence number, otherwise a partitioned
// replica's stale PUT could resurrect the key. Digest terms are XORed out,
// so two replicas compacting at the same watermark keep equal digests.
func (r *Replicated) CompactTombstones(beforeSeq uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k, meta := range r.seqs {
		if meta&1 == 1 && meta>>1 < beforeSeq {
			r.digest ^= DigestTerm(k, 0, meta)
			delete(r.seqs, k)
			r.tombs--
			n++
		}
	}
	return n
}

// MetaOf rebuilds the internal meta word from a VGET response, for digest
// computations: seq<<1, low bit set when the state is a tombstone.
func MetaOf(seq uint64, tomb bool) uint64 {
	m := seq << 1
	if tomb {
		m |= 1
	}
	return m
}

// applyLocked is the single mutation path. It returns the apply status
// plus the inner store's results for the caller-facing unversioned
// wrappers.
//
//mcvet:locked
func (r *Replicated) applyLocked(e Entry) (status byte, res mccuckoo.InsertResult, removed bool) {
	meta, seen := r.seqs[e.Key]
	if e.Seq == 0 || (seen && e.Seq <= meta>>1) {
		r.entriesStale.Add(1)
		return ApplyStale, res, false
	}
	var oldTerm uint64
	if seen {
		var oldVal uint64
		if meta&1 == 0 {
			if v, ok := r.inner.Lookup(e.Key); ok {
				oldVal = v
			}
		}
		oldTerm = DigestTerm(e.Key, oldVal, meta)
	}
	newMeta := e.Seq << 1
	var newVal uint64
	switch e.Op {
	case OpPut:
		res = r.inner.Insert(e.Key, e.Value)
		if res.Status == mccuckoo.Failed {
			// The write should have won but the table had no room. The
			// sequence number is NOT advanced, so a later retry (or
			// read-repair) can still land it.
			r.applyFailures.Add(1)
			return ApplyFailed, res, false
		}
		newVal = e.Value
	case OpDel:
		removed = r.inner.Delete(e.Key)
		newMeta |= 1
	}
	if wasTomb, isTomb := seen && meta&1 == 1, e.Op == OpDel; isTomb && !wasTomb {
		r.tombs++
	} else if wasTomb && !isTomb {
		r.tombs--
	}
	r.seqs[e.Key] = newMeta
	r.digest ^= oldTerm ^ DigestTerm(e.Key, newVal, newMeta)
	if e.Seq > r.applied {
		r.applied = e.Seq
	}
	if e.Seq > r.localSeq {
		r.localSeq = e.Seq
	}
	r.log.append(e)
	r.notifyLocked()
	r.entriesApplied.Add(1)
	return ApplyApplied, res, removed
}

//mcvet:locked
func (r *Replicated) notifyLocked() {
	for sub := range r.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
}

// ApplyPush applies pushed entries (a REPLICATE request: a cluster write or
// a read-repair) and returns one apply status per entry.
func (r *Replicated) ApplyPush(ents []Entry, statuses []byte) []byte {
	if cap(statuses) < len(ents) {
		statuses = make([]byte, len(ents))
	}
	statuses = statuses[:len(ents)]
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, e := range ents {
		st, _, _ := r.applyLocked(e)
		statuses[i] = st
		if st == ApplyApplied {
			r.repairApplied.Add(1)
		}
	}
	return statuses
}

// ApplyStream applies entries received from an op-log subscription,
// reporting how many were applied, stale, and failed.
func (r *Replicated) ApplyStream(ents []Entry) (applied, stale, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range ents {
		switch st, _, _ := r.applyLocked(e); st {
		case ApplyApplied:
			applied++
		case ApplyStale:
			stale++
		case ApplyFailed:
			failed++
		}
	}
	return applied, stale, failed
}

// VGet reports a key's replication state: VStateLive with its value and
// last-write sequence number, VStateTomb with the deletion's sequence
// number, or VStateMissing (seq 0) for a key this replica has never seen.
func (r *Replicated) VGet(key uint64) (state byte, value, seq uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	meta, ok := r.seqs[key]
	if !ok {
		return VStateMissing, 0, 0
	}
	if meta&1 == 1 {
		return VStateTomb, 0, meta >> 1
	}
	v, found := r.inner.Lookup(key)
	if !found {
		// A live meta without a value means the pair predates sequence
		// tracking and diverged (stale sidecar); report missing so
		// read-repair re-fills it.
		return VStateMissing, 0, 0
	}
	return VStateLive, v, meta >> 1
}

// --- op-log subscriptions ---

// logSub is one subscriber's cursor into the op log. The cursor is owned
// by the serving goroutine; notify (capacity 1) is poked on every append.
type logSub struct {
	cursor uint64
	notify chan struct{}
}

// subscribe registers a subscriber resuming after fromSeq. When fromSeq
// predates what the op log retains, full is true and dumpKeys holds a
// consistent snapshot of every tracked key: the subscriber gets a full
// state dump (dumpEntries over those keys) before the incremental stream.
// head is the replica's current high-water sequence number.
func (r *Replicated) subscribe(fromSeq uint64) (sub *logSub, head uint64, full bool, dumpKeys []uint64) {
	sub = &logSub{notify: make(chan struct{}, 1)}
	r.mu.Lock()
	defer r.mu.Unlock()
	bound := r.log.droppedSeqMax
	if r.baseSeq > bound {
		bound = r.baseSeq
	}
	full = fromSeq < bound
	if full {
		r.fullSyncs.Add(1)
		sub.cursor = r.log.next
		dumpKeys = make([]uint64, 0, len(r.seqs))
		for k := range r.seqs {
			dumpKeys = append(dumpKeys, k)
		}
	} else {
		sub.cursor = r.log.first
	}
	r.subs[sub] = struct{}{}
	return sub, r.applied, full, dumpKeys
}

func (r *Replicated) unsubscribe(sub *logSub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.subs, sub)
}

// pull copies the next batch of op-log entries at the subscriber's cursor
// into dst's capacity. overrun reports the cursor fell behind the ring —
// the subscriber must resubscribe (and will be offered a full dump).
func (r *Replicated) pull(sub *logSub, dst []Entry) (ents []Entry, head uint64, overrun bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ents, sub.cursor, overrun = r.log.copySince(sub.cursor, dst)
	return ents, r.applied, overrun
}

// dumpEntries renders a chunk of tracked keys as replication entries: live
// keys as PUTs, tombstones as DELs, each carrying its recorded sequence
// number. Keys whose value has since vanished are skipped; the incremental
// stream that follows the dump carries their newer state.
func (r *Replicated) dumpEntries(keys []uint64, dst []Entry) []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, k := range keys {
		meta, ok := r.seqs[k]
		if !ok {
			continue
		}
		if meta&1 == 1 {
			dst = append(dst, Entry{Seq: meta >> 1, Op: OpDel, Key: k})
			continue
		}
		v, found := r.inner.Lookup(k)
		if !found {
			continue
		}
		dst = append(dst, Entry{Seq: meta >> 1, Op: OpPut, Key: k, Value: v})
	}
	return dst
}

// --- the BatchStore surface ---

// nextSeqLocked issues a sequence number for an unversioned local write:
// strictly above everything applied or issued before it on this replica.
//
//mcvet:locked
func (r *Replicated) nextSeqLocked() uint64 {
	r.localSeq++
	return r.localSeq
}

func (r *Replicated) Insert(key, value uint64) mccuckoo.InsertResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, res, _ := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpPut, Key: key, Value: value})
	return res
}

func (r *Replicated) Delete(key uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _, removed := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: key})
	return removed
}

// Lookup passes through: plain reads need no version bookkeeping and the
// wrapped store is concurrency-safe by contract.
func (r *Replicated) Lookup(key uint64) (uint64, bool) { return r.inner.Lookup(key) }

func (r *Replicated) Len() int           { return r.inner.Len() }
func (r *Replicated) Capacity() int      { return r.inner.Capacity() }
func (r *Replicated) LoadRatio() float64 { return r.inner.LoadRatio() }
func (r *Replicated) StashLen() int      { return r.inner.StashLen() }

func (r *Replicated) Stats() mccuckoo.Stats { return r.inner.Stats() }

func (r *Replicated) InsertBatch(keys, values []uint64) []mccuckoo.InsertResult {
	out := make([]mccuckoo.InsertResult, len(keys))
	r.InsertBatchInto(keys, values, out)
	return out
}

func (r *Replicated) InsertBatchInto(keys, values []uint64, out []mccuckoo.InsertResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		_, res, _ := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpPut, Key: k, Value: values[i]})
		if out != nil {
			out[i] = res
		}
	}
}

func (r *Replicated) LookupBatch(keys []uint64) ([]uint64, []bool) {
	return r.inner.LookupBatch(keys)
}

func (r *Replicated) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	r.inner.LookupBatchInto(keys, values, found)
}

func (r *Replicated) DeleteBatch(keys []uint64) []bool {
	out := make([]bool, len(keys))
	r.DeleteBatchInto(keys, out)
	return out
}

func (r *Replicated) DeleteBatchInto(keys []uint64, removed []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		_, _, rm := r.applyLocked(Entry{Seq: r.nextSeqLocked(), Op: OpDel, Key: k})
		if removed != nil {
			removed[i] = rm
		}
	}
}

// --- sidecar persistence ---

// The sidecar file persists the replication bookkeeping next to the value
// snapshot: applied seq plus every key's meta word, CRC32C-guarded like
// every other on-disk artifact here (§7). A node restarted with both files
// resumes its subscriptions from the persisted seq instead of a full
// resynchronization.

const (
	sidecarMagic   = "MCRS"
	sidecarVersion = 1
)

// SidecarError is the typed rejection for a corrupt or mismatched sidecar
// file; the caller should fall back to a full resynchronization.
type SidecarError struct{ Reason string }

func (e *SidecarError) Error() string { return "wire: replica sidecar: " + e.Reason }

// CheckpointWith atomically checkpoints the pair (values, bookkeeping):
// saveValues runs with all mutations excluded, then the sidecar is written
// while the lock is still held, so the two files always describe the same
// state. A crash between the two writes leaves a values file newer than
// the sidecar, which LoadSidecar tolerates (the op-log catch-up replays
// the gap).
func (r *Replicated) CheckpointWith(saveValues func() error, sidecarPath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := saveValues(); err != nil {
		return err
	}
	return r.saveSidecarLocked(sidecarPath)
}

// SaveSidecar writes the bookkeeping sidecar on its own (for tests and
// callers that quiesce writes themselves).
func (r *Replicated) SaveSidecar(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saveSidecarLocked(path)
}

// saveSidecarLocked writes the sidecar: header, sorted (key, meta) pairs,
// trailing CRC32C over everything before it.
//
//mcvet:locked
//mcvet:deterministic
func (r *Replicated) saveSidecarLocked(path string) error {
	keys := make([]uint64, 0, len(r.seqs))
	for k := range r.seqs { //mcvet:allow nodeterminism keys are sorted before writing
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return atomicio.WriteFile(path, func(f *os.File) error {
		crc := crc32.New(castagnoli)
		w := bufio.NewWriter(io.MultiWriter(f, crc))
		var hdr [24]byte
		copy(hdr[0:4], sidecarMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], sidecarVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], r.applied)
		binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(keys)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		var rec [16]byte
		for _, k := range keys {
			binary.LittleEndian.PutUint64(rec[0:8], k)
			binary.LittleEndian.PutUint64(rec[8:16], r.seqs[k])
			if _, err := w.Write(rec[:]); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
		_, err := f.Write(tail[:])
		return err
	})
}

// LoadSidecar restores the bookkeeping written by SaveSidecar, replacing
// any seeded state. Live keys whose value is absent from the wrapped store
// (a sidecar older than the values snapshot) are dropped from tracking and
// counted, so they read as missing and heal through read-repair and the
// catch-up stream. Corrupt files are rejected with a *SidecarError and
// leave the state untouched.
func (r *Replicated) LoadSidecar(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < 28 {
		return &SidecarError{Reason: "truncated file"}
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return &SidecarError{Reason: fmt.Sprintf("checksum mismatch: computed %08x, file says %08x", got, want)}
	}
	if string(body[0:4]) != sidecarMagic {
		return &SidecarError{Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != sidecarVersion {
		return &SidecarError{Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	applied := binary.LittleEndian.Uint64(body[8:16])
	count := binary.LittleEndian.Uint64(body[16:24])
	if uint64(len(body)-24) != count*16 {
		return &SidecarError{Reason: "record count disagrees with file size"}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seqs := make(map[uint64]uint64, count)
	var digest uint64
	tombs := 0
	drops := int64(0)
	off := 24
	for i := uint64(0); i < count; i++ {
		k := binary.LittleEndian.Uint64(body[off : off+8])
		meta := binary.LittleEndian.Uint64(body[off+8 : off+16])
		off += 16
		var val uint64
		if meta&1 == 0 {
			v, ok := r.inner.Lookup(k)
			if !ok {
				// Stale sidecar: the key was live at sidecar save time but
				// the (newer) values snapshot no longer holds it. Drop it;
				// catch-up replays its newer state.
				drops++
				continue
			}
			val = v
		} else {
			tombs++
		}
		seqs[k] = meta
		digest ^= DigestTerm(k, val, meta)
	}
	r.seqs = seqs
	r.digest = digest
	r.tombs = tombs
	if applied > r.applied {
		r.applied = applied
	}
	if r.applied > r.localSeq {
		r.localSeq = r.applied
	}
	r.baseSeq = r.applied
	r.sidecarDrops.Add(drops)
	return nil
}

// --- observability ---

// ReplicaStats is the replication section of the STATS response, present
// when the served store is a Replicated.
type ReplicaStats struct {
	AppliedSeq     uint64 `json:"applied_seq"`
	BaseSeq        uint64 `json:"base_seq"`
	DigestHex      string `json:"digest_hex"`
	TrackedKeys    int    `json:"tracked_keys"`
	Tombstones     int    `json:"tombstones"`
	OplogLen       int    `json:"oplog_len"`
	OplogDropped   int64  `json:"oplog_dropped"`
	Subscribers    int    `json:"subscribers"`
	EntriesApplied int64  `json:"entries_applied"`
	EntriesStale   int64  `json:"entries_stale"`
	ApplyFailures  int64  `json:"apply_failures"`
	RepairApplied  int64  `json:"repair_applied"`
	FullSyncs      int64  `json:"full_syncs"`
	SidecarDrops   int64  `json:"sidecar_drops"`
}

// ReplicaStats snapshots the replication state.
func (r *Replicated) ReplicaStats() ReplicaStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return ReplicaStats{
		AppliedSeq:     r.applied,
		BaseSeq:        r.baseSeq,
		DigestHex:      fmt.Sprintf("%016x", r.digest),
		TrackedKeys:    len(r.seqs),
		Tombstones:     r.tombs,
		OplogLen:       int(r.log.next - r.log.first),
		OplogDropped:   r.log.dropped,
		Subscribers:    len(r.subs),
		EntriesApplied: r.entriesApplied.Load(),
		EntriesStale:   r.entriesStale.Load(),
		ApplyFailures:  r.applyFailures.Load(),
		RepairApplied:  r.repairApplied.Load(),
		FullSyncs:      r.fullSyncs.Load(),
		SidecarDrops:   r.sidecarDrops.Load(),
	}
}

// WritePrometheus writes the replica metrics under the mccuckoo_replica_
// prefix, mounted next to the table telemetry and the server counters on a
// node's /metrics.
func (r *Replicated) WritePrometheus(w io.Writer) error {
	st := r.ReplicaStats()
	p := &serverPromWriter{w: w}
	p.simple("mccuckoo_replica_applied_seq", "Highest sequence number applied.", "gauge", int64(st.AppliedSeq))
	p.simple("mccuckoo_replica_tracked_keys", "Keys with replication bookkeeping (tombstones included).", "gauge", int64(st.TrackedKeys))
	p.simple("mccuckoo_replica_tombstones", "Deleted keys retained as tombstones.", "gauge", int64(st.Tombstones))
	p.simple("mccuckoo_replica_oplog_entries", "Entries currently retained in the op-log ring.", "gauge", int64(st.OplogLen))
	p.simple("mccuckoo_replica_oplog_dropped_total", "Entries evicted from the op-log ring.", "counter", st.OplogDropped)
	p.simple("mccuckoo_replica_subscribers", "Live op-log subscriptions.", "gauge", int64(st.Subscribers))
	p.simple("mccuckoo_replica_entries_applied_total", "Entries applied (all sources).", "counter", st.EntriesApplied)
	p.simple("mccuckoo_replica_entries_stale_total", "Entries ignored as stale.", "counter", st.EntriesStale)
	p.simple("mccuckoo_replica_apply_failures_total", "Entries that lost to table capacity.", "counter", st.ApplyFailures)
	p.simple("mccuckoo_replica_repair_applied_total", "Pushed entries (cluster writes and read-repair) applied.", "counter", st.RepairApplied)
	p.simple("mccuckoo_replica_full_syncs_total", "Subscriptions that required a full state dump.", "counter", st.FullSyncs)
	p.simple("mccuckoo_replica_sidecar_drops_total", "Sidecar keys dropped for missing values at load.", "counter", st.SidecarDrops)
	return p.err
}
