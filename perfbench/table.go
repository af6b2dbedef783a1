package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"mccuckoo"
)

// loadTarget is the load both table workloads hold: high enough that
// insertion work shows, low enough that filling 8 Mi buckets stays cheap.
const loadTarget = 0.85

// cellBytes is the size of one bucket of a single-slot table (key + value).
const cellBytes = 16

type tableSpec struct {
	buckets    int
	newGen     func(seed uint64, n int) opStream
	outOfCache bool // the table must exceed the last-level cache (else fit in L2)
}

func runTableRead(c *runCtx) error {
	spec := tableSpec{buckets: 8 << 20, outOfCache: true,
		newGen: func(seed uint64, n int) opStream { return newReadGen(seed, n) }}
	if c.small {
		spec.buckets = 1 << 16
	}
	return runTable(c, spec)
}

func runTableChurn(c *runCtx) error {
	return runTable(c, tableSpec{buckets: 64 << 10,
		newGen: func(seed uint64, n int) opStream { return newChurnGen(seed, n) }})
}

// prepared is an op with its key and expected value already derived, so the
// timed loop runs only table calls and comparisons.
type prepared struct {
	kind     opKind
	key, val uint64
}

type tableRun struct {
	t     *mccuckoo.Table
	s     mccuckoo.Store // t, unless a test wraps it
	ks    keyspace
	gen   opStream
	chunk []prepared
}

// chunkOps is how many ops are generated ahead of each timed stretch.
const chunkOps = 4096

// buildTable creates a d = 3 table with default options and fills it to
// loadTarget with keys 0..n-1 at version 0.
func buildTable(seed uint64, ks keyspace, buckets int) (*mccuckoo.Table, int, error) {
	t, err := mccuckoo.New(buckets, mccuckoo.WithSeed(seed))
	if err != nil {
		return nil, 0, err
	}
	n := int(loadTarget * float64(t.Capacity()))
	for i := 0; i < n; i++ {
		k := ks.key(uint32(i))
		if r := t.Insert(k, ks.value(k, 0)); r.Status == mccuckoo.Failed {
			return nil, 0, fmt.Errorf("fill: insert %d of %d failed", i, n)
		}
	}
	return t, n, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// moreSetups reports whether a run that set up done times, spending spent
// seconds, sets up again: at least three times and for at least three
// seconds, at most 200 times, so that the median setup_s of a cheap set-up
// is as steady as that of an expensive one. A set-up of table-churn takes
// 10-20 ms, and the host's slow spells (see fastShare) come and go within a
// second. Traced and test runs set up once.
func moreSetups(c *runCtx, done int, spent float64) bool {
	if c.trace || c.small {
		return done < 1
	}
	return done < 3 || done < 200 && spent < 3
}

func runTable(c *runCtx, spec tableSpec) error {
	ks := newKeyspace(c.seed, c.workload)
	var setups, mems []float64
	var r *tableRun
	for len(setups) == 0 || moreSetups(c, len(setups), sum(setups)) {
		r = nil
		h0 := heapAlloc()
		start := time.Now()
		t, n, err := buildTable(c.seed, ks, spec.buckets)
		if err != nil {
			return err
		}
		setup := time.Since(start)
		mems = append(mems, float64(heapAlloc()-h0)/float64(t.Len()))
		start = time.Now()
		r = &tableRun{t: t, s: t, ks: ks, gen: spec.newGen(c.seed, n), chunk: make([]prepared, chunkOps)}
		setups = append(setups, (setup + time.Since(start)).Seconds())
	}
	c.printf("setup table buckets=%d items=%d load=%.4f setups_s=%.3f", r.t.Capacity(), r.t.Len(), r.t.LoadRatio(), setups)
	checkCacheFit(c, spec, r.t.Capacity())
	if c.wrap != nil {
		r.s = c.wrap(r.t)
	}
	if c.trace {
		return traceTable(c, r)
	}
	c.set("setup_s", median(setups), "s")
	c.set("mem_bytes_per_item", median(mems), "B/item")

	// Let caches and the branch predictors settle before timing; the
	// warm-up's answers are checked like the rest.
	warm := r.measure(300*time.Millisecond, 1)
	st := r.measure(time.Duration(c.seconds*float64(time.Second)), tableWindows)
	c.tally(warm)
	c.tally(st)
	reportSteal(c, "the measured phase", st.quiet)
	reportChunks(c, st)
	c.printf("end table items=%d load=%.4f stash=%d", r.t.Len(), r.t.LoadRatio(), r.t.StashLen())
	return nil
}

// checkCacheFit flags a run whose table does not sit where the workload
// needs it relative to the host's caches.
func checkCacheFit(c *runCtx, spec tableSpec, buckets int) {
	bytes := int64(buckets) * cellBytes
	l2, llc := cacheSizes()
	switch {
	case c.small:
	case spec.outOfCache && (llc == 0 || bytes <= llc):
		c.flag("cache-fit: table of %d bytes does not exceed the last-level cache (%d bytes)", bytes, llc)
	case !spec.outOfCache && (l2 == 0 || bytes > l2):
		c.flag("cache-fit: table of %d bytes does not fit in L2 (%d bytes)", bytes, l2)
	default:
		c.printf("cache-fit ok: table %d bytes, l2 %d, llc %d", bytes, l2, llc)
	}
}

func (r *tableRun) prepare(n int) []prepared {
	ch := r.chunk[:n]
	for i := range ch {
		o := r.gen.next()
		k := r.ks.key(o.idx)
		ch[i] = prepared{kind: o.kind, key: k, val: r.ks.value(k, o.ver)}
	}
	return ch
}

// check executes one prepared op and reports a wrong answer or a failure.
func check(s mccuckoo.Store, p *prepared) (wrong, failed bool) {
	switch p.kind {
	case opGet:
		v, ok := s.Lookup(p.key)
		return !ok || v != p.val, false
	case opGetAbsent:
		_, ok := s.Lookup(p.key)
		return ok, false
	case opUpdate:
		st := s.Insert(p.key, p.val).Status
		return st != mccuckoo.Updated && st != mccuckoo.Failed, st == mccuckoo.Failed
	case opInsert:
		st := s.Insert(p.key, p.val).Status
		return st == mccuckoo.Updated, st == mccuckoo.Failed
	case opDelete:
		return !s.Delete(p.key), false
	}
	panic("perfbench: unexpected table op")
}

// tableWindows is how many windows the steal watch cuts a table run into.
const tableWindows = 40

// sampleEvery is the stride of individually timed ops in the closed loop.
const sampleEvery = 16

// chunkStat is what one chunk of the closed loop measured.
type chunkStat struct {
	ops        int64
	execNs     int64 // time spent in table calls
	midNs      int64 // median latency of the chunk's timed ops, all kinds
	get0, get1 int   // the chunk's samples in phaseStats.get
	put0, put1 int   // and in phaseStats.put
	win        int   // the steal window the chunk ran in
}

// measure runs the closed loop for dur and times every sampleEvery-th op.
func (r *tableRun) measure(dur time.Duration, windows int) *phaseStats {
	window := dur / time.Duration(windows)
	st := &phaseStats{window: window, windowOps: make([]int64, windows)}
	mids := make([]int64, 0, chunkOps/sampleEvery)
	start := time.Now()
	steal := watchSteal(start, window, windows)
	for {
		elapsed := time.Since(start)
		if elapsed >= dur {
			break
		}
		win := windowOf(int64(elapsed), window, windows)
		ch := r.prepare(chunkOps)
		cs := chunkStat{ops: int64(len(ch)), get0: len(st.get.ns), put0: len(st.put.ns), win: win}
		mids = mids[:0]
		t0 := time.Now()
		for i := range ch {
			p := &ch[i]
			var s0 time.Time
			timed := i%sampleEvery == 0
			if timed {
				s0 = time.Now()
			}
			wrong, failed := check(r.s, p)
			if timed {
				ns := int64(time.Since(s0))
				st.record(op{kind: p.kind}, ns, 0, win)
				mids = append(mids, ns)
			}
			if wrong {
				st.wrong++
			}
			if failed {
				st.failed++
			}
		}
		cs.execNs = int64(time.Since(t0))
		slices.Sort(mids)
		cs.midNs = mids[len(mids)/2]
		cs.get1, cs.put1 = len(st.get.ns), len(st.put.ns)
		st.chunks = append(st.chunks, cs)
		st.windowOps[win] += cs.ops
		st.ops += cs.ops
	}
	st.quiet = steal.quiet(window, runtime.NumCPU())
	return st
}

// A shared host slows a core down in spells of tens of milliseconds: on the
// tuning host every chunk of a table run (4096 ops, 1–3 ms) ran either at
// the program's own speed or about half of it, the two kinds interleaved
// throughout a run, and the share of fast chunks swung between runs from a
// few percent to nearly all. Any figure taken over whole runs or
// half-second windows then follows the host. A table run's end-to-end
// figures are therefore taken over its fastest chunks: the fastShare of the
// chunks with the lowest median op latency, among the chunks that ran in
// quiet windows (see steal.go) when at least a quarter did. A chunk is
// ranked by the median of its 256 timed ops, not by its total time, so a
// change that adds a rare stall does not push the chunks it hits out of the
// selection: the stall still shows in the tail percentiles and in ops_per_s.
// A change that slows every op moves every chunk, so it shows too.

// fastShare is the share of the chunks a table run's figures are taken over.
const fastShare = 0.02

// fastChunks returns the chunks the end-to-end figures are taken over.
func (p *phaseStats) fastChunks() []chunkStat {
	var calm []chunkStat
	for _, cs := range p.chunks {
		if p.quiet[cs.win] {
			calm = append(calm, cs)
		}
	}
	if 4*len(calm) < len(p.chunks) {
		calm = append(calm[:0], p.chunks...)
	}
	slices.SortStableFunc(calm, func(a, b chunkStat) int { return cmp.Compare(a.midNs, b.midNs) })
	return calm[:max(1, int(fastShare*float64(len(calm))))]
}

// reportChunks sets a table run's throughput and latencies from its fastest
// chunks, and prints the same figures over every chunk beside them.
func reportChunks(c *runCtx, st *phaseStats) {
	sel := st.fastChunks()
	var ops, ns int64
	var get, put []int64
	for _, cs := range sel {
		ops += cs.ops
		ns += cs.execNs
		get = append(get, st.get.ns[cs.get0:cs.get1]...)
		put = append(put, st.put.ns[cs.put0:cs.put1]...)
	}
	slices.Sort(get)
	slices.Sort(put)
	// Throughput counts table time only, not op generation.
	c.set("ops_per_s", float64(ops)/time.Duration(ns).Seconds(), "1/s")
	c.set("get_p50_us", us(quantile(get, 0.5)), "us")
	c.set("get_p90_us", us(quantile(get, 0.9)), "us")
	c.set("put_p50_us", us(quantile(put, 0.5)), "us")
	c.set("put_p90_us", us(quantile(put, 0.9)), "us")
	c.printf("metric get_p99_us = %.6g us (not gated)", us(quantile(get, 0.99)))
	c.printf("metric put_p99_us = %.6g us (not gated)", us(quantile(put, 0.99)))
	c.printf("chunks %d, figures over the fastest %d (median op latency <= %d ns)", len(st.chunks), len(sel), sel[len(sel)-1].midNs)

	var allNs int64
	mm := make([]int64, 0, len(st.chunks))
	for _, cs := range st.chunks {
		allNs += cs.execNs
		mm = append(mm, cs.midNs)
	}
	slices.Sort(mm)
	deciles := make([]int64, 10)
	for i := range deciles {
		deciles[i] = quantile(mm, float64(i)/10)
	}
	c.printf("chunk median op latency, min and deciles (ns): %d", deciles)
	allGet, allPut := sortedCopy(st.get.ns), sortedCopy(st.put.ns)
	c.printf("all chunks: ops_per_s %.4g, get p50 %.3fus p90 %.3fus, put p50 %.3fus p90 %.3fus",
		float64(st.ops)/time.Duration(allNs).Seconds(), us(quantile(allGet, 0.5)), us(quantile(allGet, 0.9)),
		us(quantile(allPut, 0.5)), us(quantile(allPut, 0.9)))
	c.printf("latency get %s; put %s (every %dth op timed, all chunks)", tail(allGet), tail(allPut), sampleEvery)
}
