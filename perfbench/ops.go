package main

import (
	"math"

	"mccuckoo/internal/hashutil"
)

// Every key and value the benchmark sends is generated here from the seed.
// Key i of a run is Mix64(i + salt): Mix64 is a bijection, so distinct
// indexes give distinct keys. A value is a keyed function of its key and the
// write version that produced it, so a reader knows exactly which value each
// read must return.

type keyspace struct{ salt, vsalt uint64 }

func newKeyspace(seed uint64, workload string) keyspace {
	h := seed
	for i := 0; i < len(workload); i++ {
		h = hashutil.Mix64(h ^ uint64(workload[i]))
	}
	return keyspace{salt: hashutil.Mix64(h + 1), vsalt: hashutil.Mix64(h + 2)}
}

func (ks keyspace) key(i uint32) uint64 { return hashutil.Mix64(uint64(i) + ks.salt) }

func (ks keyspace) value(key uint64, ver uint32) uint64 {
	return hashutil.Mix64(key ^ hashutil.Mix64(uint64(ver)+ks.vsalt))
}

// rng is a splitmix64 stream.
type rng uint64

func (r *rng) next() uint64 { return hashutil.SplitMix64((*uint64)(r)) }

// intn returns a uniform value in [0, n) for n < 2^32.
func (r *rng) intn(n uint32) uint32 { return uint32((r.next() >> 32) * uint64(n) >> 32) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

type opKind uint8

const (
	opGet        opKind = iota // read a key the model says is present
	opGetAbsent                // read a key that was never written
	opGetGone                  // read a key the model says was deleted
	opUpdate                   // overwrite a present key with a new version
	opInsert                   // write a key that is not present
	opDelete                   // delete a present key
	opDeleteGone               // delete a key the model says is absent
)

func (k opKind) isRead() bool { return k <= opGetGone }

// op is one generated operation together with the answer it must get.
type op struct {
	kind opKind
	idx  uint32 // key index
	ver  uint32 // version the read must see, or the version this write stores
	due  int64  // open-loop send time, ns after the phase start (not part of the stream)
}

// opStream yields a workload's deterministic operation sequence. Generators
// track the model state (versions, presence) themselves, so the expected
// answer of every op is fixed when it is generated.
type opStream interface{ next() op }

// absentBase is the first key index of the never-written range.
const absentBase = 1 << 31

// readGen is table-read: 80% lookups of present keys, 15% lookups of absent
// keys, 5% value updates, over n preloaded keys.
type readGen struct {
	r    rng
	vers []uint32
}

func newReadGen(seed uint64, n int) *readGen {
	return &readGen{r: rng(hashutil.Mix64(seed ^ 0x7ead)), vers: make([]uint32, n)}
}

func (g *readGen) next() op {
	n := uint32(len(g.vers))
	switch p := g.r.intn(100); {
	case p < 80:
		i := g.r.intn(n)
		return op{kind: opGet, idx: i, ver: g.vers[i]}
	case p < 95:
		return op{kind: opGetAbsent, idx: absentBase + g.r.intn(absentBase)}
	default:
		i := g.r.intn(n)
		g.vers[i]++
		return op{kind: opUpdate, idx: i, ver: g.vers[i]}
	}
}

// churnGen is table-churn: 40% deletes of live keys, 40% inserts of new
// keys, 20% lookups of live keys, with the live count held within slack of
// target. Every key is inserted once, at version 0.
type churnGen struct {
	r       rng
	live    []uint32
	nextIdx uint32
	target  int
}

// churnSlack bounds how far the live count drifts from its target.
const churnSlack = 256

func newChurnGen(seed uint64, target int) *churnGen {
	g := &churnGen{r: rng(hashutil.Mix64(seed ^ 0xc4a1)), live: make([]uint32, target, target+churnSlack+1), target: target}
	for i := range g.live {
		g.live[i] = uint32(i)
	}
	g.nextIdx = uint32(target)
	return g
}

func (g *churnGen) next() op {
	p := g.r.intn(100)
	switch {
	case p < 40 && len(g.live) < g.target-churnSlack:
		p = 40 // too few live keys: insert instead
	case p >= 40 && p < 80 && len(g.live) > g.target+churnSlack:
		p = 0 // too many: delete instead
	}
	switch {
	case p < 40:
		j := g.r.intn(uint32(len(g.live)))
		i := g.live[j]
		g.live[j] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return op{kind: opDelete, idx: i}
	case p < 80:
		i := g.nextIdx
		g.nextIdx++
		g.live = append(g.live, i)
		return op{kind: opInsert, idx: i}
	default:
		return op{kind: opGet, idx: g.live[g.r.intn(uint32(len(g.live)))]}
	}
}

// zipf draws ranks in [0, n) from a Zipf(theta) distribution with the
// rejection-free method of Gray et al. ("Quickly generating billion-record
// synthetic databases"), the generator YCSB uses.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipf(n int, theta float64) zipf {
	var zetan, zeta2 float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
		if i == 2 {
			zeta2 = zetan
		}
	}
	return zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
	}
}

func (z zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

// kvModel is the state the network workloads' generators agree on: each
// key's latest write version and whether that write was a delete.
type kvModel struct {
	vers []uint32
	gone []bool
}

func newKVModel(n int) *kvModel { return &kvModel{vers: make([]uint32, n), gone: make([]bool, n)} }

// kvGen is the network mix over the model's keys: reads split into present,
// absent and deleted by the model, writes as updates (re-inserts after a
// delete) and deletes. Keys are chosen by pick. A generator with parts > 1
// only touches key indexes congruent to part, so generators of distinct
// parts can run concurrently over one model.
type kvGen struct {
	r           rng
	m           *kvModel
	pick        func(r *rng) uint32
	getPct      uint32 // reads, percent of all ops
	absentPct   uint32 // absent reads, percent of reads
	putPct      uint32 // writes that store a value, percent of all ops
	part, parts uint32
}

// newWireGen is wire-kv: 90% GET (10% of them absent), 9% PUT, 1% DEL over
// YCSB-style scrambled Zipf(0.99) keys.
func newWireGen(seed uint64, m *kvModel) *kvGen {
	n := len(m.vers)
	z := newZipf(n, 0.99)
	return &kvGen{
		r: rng(hashutil.Mix64(seed ^ 0x317e)), m: m,
		pick: func(r *rng) uint32 {
			return uint32(hashutil.Mix64(z.rank(r.float())) % uint64(n))
		},
		getPct: 90, absentPct: 10, putPct: 9, parts: 1,
	}
}

// newClusterGen is cluster-rw: 50% GET, 50% PUT over uniform keys.
func newClusterGen(seed uint64, m *kvModel) *kvGen {
	n := uint32(len(m.vers))
	return &kvGen{
		r: rng(hashutil.Mix64(seed ^ 0xc105)), m: m,
		pick:   func(r *rng) uint32 { return r.intn(n) },
		getPct: 50, putPct: 50, parts: 1,
	}
}

// split returns parts generators with the same mix, each seeded apart and
// confined to its own residue class of key indexes.
func (g *kvGen) split(parts int) []*kvGen {
	out := make([]*kvGen, parts)
	for i := range out {
		c := *g
		c.r = rng(hashutil.Mix64(uint64(g.r) + uint64(i) + 1))
		c.part, c.parts = uint32(i), uint32(parts)
		out[i] = &c
	}
	return out
}

func (g *kvGen) key() uint32 {
	i := g.pick(&g.r)
	if g.parts > 1 {
		i = i - i%g.parts + g.part
		if int(i) >= len(g.m.vers) {
			i -= g.parts
		}
	}
	return i
}

func (g *kvGen) next() op {
	m := g.m
	switch p := g.r.intn(100); {
	case p < g.getPct:
		if g.r.intn(100) < g.absentPct {
			return op{kind: opGetAbsent, idx: absentBase + g.r.intn(absentBase)}
		}
		i := g.key()
		if m.gone[i] {
			return op{kind: opGetGone, idx: i}
		}
		return op{kind: opGet, idx: i, ver: m.vers[i]}
	case p < g.getPct+g.putPct:
		i := g.key()
		m.vers[i]++
		o := op{kind: opUpdate, idx: i, ver: m.vers[i]}
		if m.gone[i] {
			o.kind = opInsert
		}
		m.gone[i] = false
		return o
	default:
		i := g.key()
		m.vers[i]++
		o := op{kind: opDelete, idx: i, ver: m.vers[i]}
		if m.gone[i] {
			o.kind = opDeleteGone
		}
		m.gone[i] = true
		return o
	}
}

// arrivals is a Poisson arrival process at a fixed rate, drawn from its own
// stream so the op stream does not depend on the rates a run uses.
type arrivals struct {
	r        rng
	interval float64
	clock    float64
}

func newArrivals(seed uint64, rate float64) *arrivals {
	return &arrivals{r: rng(hashutil.Mix64(seed ^ 0xa771 ^ uint64(rate))), interval: 1e9 / rate}
}

// next returns the next send time in ns after the phase start.
func (a *arrivals) next() int64 {
	a.clock += -math.Log(1-a.r.float()) * a.interval
	return int64(a.clock)
}
