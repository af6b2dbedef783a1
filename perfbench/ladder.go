package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"mccuckoo"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/wire"
)

// traceOps is the op count of each pass of a traced table run. It is fixed,
// not timed, so the count metrics repeat exactly for a seed.
func traceOps(c *runCtx) int {
	if c.small {
		return 50_000
	}
	return 1_000_000
}

// opTrace accumulates what one kind of table op cost, from Traffic and
// Stats read around every op.
type opTrace struct {
	n, offR, offW, onR, kicks, stashProbes int64
}

type tableTrace struct{ lookup, insert, update, delete opTrace }

// tracedOp runs p on s with a span, charging t's traffic to acc.
func tracedOp(t *mccuckoo.Table, s mccuckoo.Store, p *prepared, acc *tableTrace, tr *tracer) (wrong, failed bool) {
	tf0, st0 := t.Traffic(), t.Stats()
	t0 := tr.now()
	wrong, failed = check(s, p)
	t1 := tr.now()
	tf1, st1 := t.Traffic(), t.Stats()
	var o *opTrace
	var name int
	switch p.kind {
	case opGet, opGetAbsent:
		o, name = &acc.lookup, spanTableLookup
	case opInsert:
		o, name = &acc.insert, spanTableInsert
	case opUpdate:
		o, name = &acc.update, spanTableUpdate
	default:
		o, name = &acc.delete, spanTableDelete
	}
	tr.record(name, t0, t1, p.key)
	o.n++
	o.offR += tf1.OffChipReads - tf0.OffChipReads
	o.offW += tf1.OffChipWrites - tf0.OffChipWrites
	o.onR += tf1.OnChipReads - tf0.OnChipReads
	o.kicks += st1.Kicks - st0.Kicks
	o.stashProbes += st1.StashProbes - st0.StashProbes
	return wrong, failed
}

// report sets the table-layer metrics for the op kinds acc saw.
func (acc *tableTrace) report(t *mccuckoo.Table, tr *tracer, set func(string, float64, string)) {
	per := func(x, n int64) float64 { return float64(x) / float64(n) }
	if l := acc.lookup; l.n > 0 {
		set("mccuckoo.lookup_ns", tr.medianNs(spanTableLookup), "ns")
		set("core.offchip_reads_per_lookup", per(l.offR, l.n), "1/op")
		set("core.onchip_reads_per_lookup", per(l.onR, l.n), "1/op")
		set("stash.probes_per_lookup", per(l.stashProbes, l.n), "1/op")
	}
	if in := acc.insert; in.n > 0 {
		set("mccuckoo.insert_ns", tr.medianNs(spanTableInsert), "ns")
		set("core.offchip_reads_per_insert", per(in.offR, in.n), "1/op")
		set("core.offchip_writes_per_insert", per(in.offW, in.n), "1/op")
		set("core.kicks_per_insert", per(in.kicks, in.n), "1/op")
	}
	if acc.update.n > 0 {
		set("mccuckoo.update_ns", tr.medianNs(spanTableUpdate), "ns")
	}
	if acc.delete.n > 0 {
		set("mccuckoo.delete_ns", tr.medianNs(spanTableDelete), "ns")
	}
	set("stash.len", float64(t.StashLen()), "count")
}

// traceTable runs traceOps ops untraced, then the next traceOps ops with a
// span and a traffic reading around each, then the ladder.
func traceTable(c *runCtx, r *tableRun) error {
	n := traceOps(c)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	r.fixed(n, nil, nil, c)
	untraced := time.Since(start)
	runtime.ReadMemStats(&ms1)
	c.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "1/op")
	c.set("runtime.gc_cycles_per_kop", float64(ms1.NumGC-ms0.NumGC)*1000/float64(n), "1/kop")

	tr := newTracer()
	acc := &tableTrace{}
	start = time.Now()
	r.fixed(n, acc, tr, c)
	traced := time.Since(start)
	c.set("trace.overhead_ratio", untraced.Seconds()/traced.Seconds(), "ratio")
	acc.report(r.t, tr, c.set)
	c.printf("traced %d ops: lookups=%d inserts=%d updates=%d deletes=%d stash=%d load=%.4f",
		n, acc.lookup.n, acc.insert.n, acc.update.n, acc.delete.n, r.t.StashLen(), r.t.LoadRatio())
	return ladder(c, tr, r.ks, r.t.Capacity()/3)
}

// fixed runs exactly n ops, traced when acc is non-nil.
func (r *tableRun) fixed(n int, acc *tableTrace, tr *tracer, c *runCtx) {
	for done := 0; done < n; {
		ch := r.prepare(min(chunkOps, n-done))
		for i := range ch {
			var wrong, failed bool
			if acc != nil {
				wrong, failed = tracedOp(r.t, r.s, &ch[i], acc, tr)
			} else {
				wrong, failed = check(r.s, &ch[i])
			}
			if wrong {
				c.wrong++
			}
			if failed {
				c.failed++
			}
		}
		done += len(ch)
		c.attempted += int64(len(ch))
	}
}

// ladderKeys is how many of the run's keys the ladder replays.
const ladderKeys = 4096

// ladderRate is the open-loop rate of the ladder's network rungs.
const ladderRate = 2000

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink uint64

// ladder replays the run's first keys through each layer on its own —
// hashutil.Family.Indexes, wire.AppendFrame/DecodeFrame, wire.ServeProbe,
// a small mccuckoo.Table, a direct wire.Client.VGet and a cluster.Client at
// the same rate — and sets every per-layer metric the workload's own pass
// did not, so each traced run reports every layer. It also writes the spans.
func ladder(c *runCtx, tr *tracer, ks keyspace, familyN int) error {
	tr.reset()
	tr.on.Store(true)
	set := func(name string, v float64, unit string) {
		if _, ok := c.metrics[name]; !ok {
			c.set(name, v, unit)
		}
	}
	keys := make([]uint64, ladderKeys)
	for i := range keys {
		keys[i] = ks.key(uint32(i))
	}

	fam, err := hashutil.NewFamily(3, familyN, c.seed)
	if err != nil {
		return err
	}
	dst := make([]int, 3)
	set("hashutil.indexes_ns", batchNs(tr, spanHashIndexes, len(keys), func() {
		for _, k := range keys {
			dst = fam.Indexes(k, dst)
			sink += uint64(dst[0])
		}
	}), "ns")

	gets := make([]wire.Frame, len(keys))
	puts := make([]wire.Frame, len(keys))
	for i, k := range keys {
		gets[i] = wire.Frame{Type: wire.OpGet, ID: uint64(i + 1), Payload: binary.LittleEndian.AppendUint64(nil, k)}
		p := binary.LittleEndian.AppendUint64(nil, k)
		puts[i] = wire.Frame{Type: wire.OpPut, ID: uint64(i + 1), Payload: binary.LittleEndian.AppendUint64(p, ks.value(k, 1))}
	}
	buf := make([]byte, 0, 64)
	set("wire.frame_encode_ns", batchNs(tr, spanFrameEncode, len(keys), func() {
		for _, f := range gets {
			buf = wire.AppendFrame(buf[:0], f)
		}
		sink += uint64(len(buf))
	}), "ns")
	encoded := make([][]byte, len(gets))
	for i, f := range gets {
		encoded[i] = wire.AppendFrame(nil, f)
	}
	var decodeErr error
	set("wire.frame_decode_ns", batchNs(tr, spanFrameDecode, len(keys), func() {
		for i, b := range encoded {
			f, _, err := wire.DecodeFrame(b, wire.DefaultMaxPayload)
			if err != nil || f.ID != gets[i].ID {
				decodeErr = fmt.Errorf("ladder: frame %d did not round-trip: %v", i, err)
			}
		}
	}), "ns")
	if decodeErr != nil {
		return decodeErr
	}

	if err := serveRung(c, tr, keys, gets, puts, set); err != nil {
		return err
	}
	tableRung(c, tr, ks, keys, set)
	if err := netRung(c, tr, ks, set); err != nil {
		return err
	}
	tr.on.Store(false)
	if err := tr.dump(c.spansOut); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	c.printf("spans written to %s", c.spansOut)
	return nil
}

// batchReps is how many times a batch-timed rung repeats; the median counts.
const batchReps = 15

// batchNs times fn, which handles n items, batchReps times and returns the
// median nanoseconds per item. Each repetition is one span.
func batchNs(tr *tracer, name, n int, fn func()) float64 {
	fn() // warm up
	per := make([]float64, batchReps)
	for i := range per {
		t0 := tr.now()
		fn()
		t1 := tr.now()
		tr.record(name, t0, t1, 0)
		per[i] = float64(t1-t0) / float64(n)
	}
	return median(per)
}

// serveRung runs GET and PUT frames through a wire.ServeProbe over a
// probed Sharded table.
func serveRung(c *runCtx, tr *tracer, keys []uint64, gets, puts []wire.Frame, set func(string, float64, string)) error {
	sh, err := mccuckoo.NewSharded(4*len(keys), 8, mccuckoo.WithSeed(c.seed))
	if err != nil {
		return err
	}
	vals := make([]uint64, len(keys))
	sh.InsertBatch(keys, vals)
	probe := newStoreProbe(sh, tr)
	sp, err := wire.NewServeProbe(probe)
	if err != nil {
		return err
	}
	bad := 0
	tr.on.Store(false)
	set("wire.serve_get_ns", batchNs(tr, spanServeGet, len(gets), func() {
		for _, f := range gets {
			if sp.Handle(f) != wire.StatusOK {
				bad++
			}
		}
	}), "ns")
	tr.on.Store(true)
	for i := range gets {
		if sp.Handle(gets[i]) != wire.StatusOK || sp.Handle(puts[i]) != wire.StatusOK {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("ladder: %d serve-probe requests failed", bad)
	}
	set("shard.lookup_ns", tr.medianNs(spanShardLookup), "ns")
	set("shard.insert_ns", tr.medianNs(spanShardInsert), "ns")
	return nil
}

// tableRung inserts, looks up, updates and deletes the keys on a small
// table at loadTarget, traced like the table workloads.
func tableRung(c *runCtx, tr *tracer, ks keyspace, keys []uint64, set func(string, float64, string)) {
	t, err := mccuckoo.New(int(float64(len(keys))/loadTarget)+1, mccuckoo.WithSeed(c.seed))
	if err != nil {
		panic(err) // fixed, valid capacity
	}
	acc := &tableTrace{}
	for _, kind := range []opKind{opInsert, opGet, opUpdate, opDelete} {
		for _, k := range keys {
			p := prepared{kind: kind, key: k, val: ks.value(k, 0)}
			if kind == opUpdate {
				p.val = ks.value(k, 1)
			}
			wrong, failed := tracedOp(t, t, &p, acc, tr)
			if wrong {
				c.wrong++
			}
			if failed {
				c.failed++
			}
			c.attempted++
		}
	}
	acc.report(t, tr, set)
}

// netRung drives a fresh 3-node cluster at ladderRate: first direct VGETs
// to one node through a wire.Client, then the cluster-rw mix through the
// cluster.Client. The difference of their GET medians is the quorum
// fan-out's cost.
func netRung(c *runCtx, tr *tracer, ks keyspace, set func(string, float64, string)) error {
	fx, err := startCluster(c, 1<<14, tr)
	if err != nil {
		return err
	}
	defer fx.close()
	if err := fx.preload(ks, ladderKeys); err != nil {
		return err
	}
	if err := fx.quiesce(10 * time.Second); err != nil {
		return err
	}
	direct, err := wire.Dial(wire.ClientConfig{Addr: fx.addrs[0], Conns: clientConns(), Dial: fx.counts.dialer()})
	if err != nil {
		return err
	}
	defer direct.Close()
	const dur = time.Second
	model := newKVModel(ladderKeys)
	bad := &keySet{}

	reads := newClusterGen(c.seed, model)
	reads.getPct = 100
	n0 := newNetTrace(fx.counts, fx.nodes[0].srv.busy, nil)
	tr.reset()
	d := openLoop(reads, newArrivals(c.seed^0x1add, ladderRate), ladderRate, dur, 16, 1, func(_ int, o op) (bool, bool) {
		k := ks.key(o.idx)
		t0 := tr.now()
		state, v, _, err := direct.VGet(k)
		tr.record(spanDirectVGet, t0, tr.now(), k)
		return settle(o, state != wire.VStateLive || v != ks.value(k, o.ver), err, bad)
	})
	c.tally(d)
	n0.report(tr, d, set)
	lag := sortedCopy(d.lag.ns)
	set("loadgen.lag_p50_us", us(quantile(lag, 0.5)), "us")
	set("loadgen.lag_p99_us", us(quantile(lag, 0.99)), "us")
	set("loadgen.backlog_max", float64(d.backlogMax), "count")

	ct := &clusterTarget{fx}
	nt := newNetTrace(fx.counts, fx.busy, fx)
	cl := openLoop(newClusterGen(c.seed, model), newArrivals(c.seed^0x2add, ladderRate), ladderRate, dur, 16, 1, spanned(tr, ks, ct.do(ks, bad)))
	c.tally(cl)
	nt.stopSampler()
	clusterReport(nt, cl, set)
	fan := float64(quantile(sortedCopy(cl.get.ns), 0.5)-quantile(sortedCopy(d.get.ns), 0.5)) / 1e3
	c.set("cluster.fanout_overhead_us", fan, "us")
	c.printf("ladder at %d/s: direct VGET p50=%.1fus, cluster GET p50=%.1fus", ladderRate,
		us(quantile(sortedCopy(d.get.ns), 0.5)), us(quantile(sortedCopy(cl.get.ns), 0.5)))
	wrong, err := ct.readBack(ks, model, bad)
	c.wrong += wrong
	return err
}
