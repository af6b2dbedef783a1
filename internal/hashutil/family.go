package hashutil

import (
	"fmt"
	"math/bits"
)

// MaxD is the largest number of hash functions a Family supports. The paper
// argues d = 3 is sufficient in practice; we allow a little headroom for
// experiments.
const MaxD = 8

// Family is a seeded family of d independent hash functions mapping 64-bit
// keys to bucket indexes in [0, n). Each of the d functions addresses its own
// subtable, exactly as in d-ary cuckoo hashing (T1..Td in the paper).
//
// Indexes are derived from BOB hash with per-function seeds, reduced by the
// Lemire multiply-shift trick so no expensive modulo is needed and any table
// length (not only powers of two) is supported.
type Family struct {
	d      int
	n      uint64
	seeds  [MaxD]uint64
	double bool

	// initA/initC are the precomputed hashlittle2 seed states for the fixed
	// 8-byte key path (bobKeyState of each function's seed): the per-key work
	// left in Index/Indexes is then only mixing the key words in and one
	// finalization round, which amortizes the seeding across the d candidate
	// computations of every operation.
	initA [MaxD]uint32
	initC [MaxD]uint32
}

// NewFamily builds a hash family with d functions onto tables of n buckets.
// The seed makes the family reproducible; distinct seeds give independent
// families (used for rehashing).
func NewFamily(d int, n int, seed uint64) (*Family, error) {
	if d < 2 || d > MaxD {
		return nil, fmt.Errorf("hashutil: d must be in [2, %d], got %d", MaxD, d)
	}
	if n <= 0 {
		return nil, fmt.Errorf("hashutil: table length must be positive, got %d", n)
	}
	f := &Family{d: d, n: uint64(n)}
	s := Mix64(seed)
	for i := 0; i < d; i++ {
		f.seeds[i] = SplitMix64(&s)
		f.initA[i], f.initC[i] = bobKeyState(f.seeds[i])
	}
	return f, nil
}

// D returns the number of hash functions in the family.
func (f *Family) D() int { return f.d }

// N returns the number of buckets each function maps onto.
func (f *Family) N() int { return int(f.n) }

// Index returns h_i(key) in [0, N), the candidate bucket of key in subtable i.
//
//mcvet:hotpath
func (f *Family) Index(i int, key uint64) int {
	if f.double && i >= 2 {
		// Double hashing: derive further indexes from the first two
		// hashes. The step is forced odd so it cycles the whole range.
		h1 := uint64(f.Index(0, key))
		h2 := bobKeyFinish(f.initA[1], f.initC[1], key) | 1
		return int((h1 + uint64(i)*h2) % f.n)
	}
	h := bobKeyFinish(f.initA[i], f.initC[i], key)
	// Multiply-shift reduction: maps a uniform 64-bit value to [0, n) with
	// negligible bias for the table sizes used here.
	hi, _ := bits.Mul64(h, f.n)
	return int(hi)
}

// Indexes fills dst with the d candidate buckets of key and returns the
// filled prefix. len(dst) must be at least d.
//
//mcvet:hotpath
func (f *Family) Indexes(key uint64, dst []int) []int {
	if f.double {
		for i := 0; i < f.d; i++ {
			dst[i] = f.Index(i, key)
		}
		return dst[:f.d]
	}
	// Against the precomputed seed states the key-word splits are shared and
	// each function costs one finalization round plus the Lemire reduction.
	// The round is lookup3's final written out in the loop, because final
	// is over the inlining budget and Indexes, at a fifth of an in-cache
	// table operation's time, would pay one call per function.
	// TestFamilyIndexesMatchIndex pins the outputs to Index, which calls
	// final.
	lo, hi := uint32(key), uint32(key>>32)
	for i := 0; i < f.d; i++ {
		a, b, c := f.initA[i]+lo, f.initA[i]+hi, f.initC[i]
		c ^= b
		c -= rot(b, 14)
		a ^= c
		a -= rot(c, 11)
		b ^= a
		b -= rot(a, 25)
		c ^= b
		c -= rot(b, 16)
		a ^= c
		a -= rot(c, 4)
		b ^= a
		b -= rot(a, 14)
		c ^= b
		c -= rot(b, 24)
		h, _ := bits.Mul64(uint64(b)<<32|uint64(c), f.n)
		dst[i] = int(h)
	}
	return dst[:f.d]
}

// NewDoubleHashedFamily builds a family whose d indexes derive from only
// two BOB hash evaluations via double hashing, h_i = h1 + i*h2 (mod n) — the
// cheap-hashing construction of Mitzenmacher et al. (SWAT'18, the paper's
// [21]) which provably preserves cuckoo load thresholds while removing
// d - 2 hash computations per key.
func NewDoubleHashedFamily(d int, n int, seed uint64) (*Family, error) {
	f, err := NewFamily(d, n, seed)
	if err != nil {
		return nil, err
	}
	f.double = true
	return f, nil
}
