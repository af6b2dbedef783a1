package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mccuckoo"
	"mccuckoo/internal/cluster"
	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/wire"
)

// netSpec sizes an open-loop network workload.
type netSpec struct {
	keys    int           // preloaded keys
	ladder  []float64     // fixed arrival rates, ops/s, ascending
	ref     float64       // the rate latencies are reported at
	limit   time.Duration // GET p99 limit a rate must meet to count
	workers int           // open-loop workers; each owns the keys ≡ its index
	newGen  func(seed uint64, m *kvModel) *kvGen
}

var wireSpec = netSpec{
	keys: 500_000, ladder: []float64{2000, 5000, 10000, 20000}, ref: 5000,
	limit: 2 * time.Millisecond, workers: 16, newGen: newWireGen,
}

var clusterSpec = netSpec{
	keys: 100_000, ladder: []float64{1000, 2000, 4000}, ref: 2000,
	limit: 5 * time.Millisecond, workers: 16, newGen: newClusterGen,
}

// target is the system an open-loop workload drives.
type target interface {
	do(ks keyspace, bad *keySet) doFunc
	// readBack checks every key against the model after the load stopped.
	readBack(ks keyspace, m *kvModel, bad *keySet) (wrong int64, err error)
	// settle lets work a phase left behind finish before the next starts.
	settle() error
	close()
}

// keySet collects key indexes whose last write failed, so their state is
// unknown and the checks skip them.
type keySet struct {
	mu sync.Mutex
	m  map[uint32]bool
}

func (s *keySet) add(i uint32) {
	s.mu.Lock()
	if s.m == nil {
		s.m = map[uint32]bool{}
	}
	s.m[i] = true
	s.mu.Unlock()
}

func (s *keySet) has(i uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[i]
}

var errFailedInsert = errors.New("insert status Failed")

// wireTarget is one wire.Server over NewSharded(1<<20, 8), the mcserved
// defaults, and one wire.Client.
type wireTarget struct {
	probe  *storeProbe // nil when untraced
	srv    *served
	cl     *wire.Client
	counts *connCounts // nil when untraced
}

func (t *wireTarget) close() {
	t.cl.Close()
	t.srv.stop()
}

func (t *wireTarget) do(ks keyspace, bad *keySet) doFunc {
	return func(_ int, o op) (bool, bool) {
		k := ks.key(o.idx)
		var wrong bool
		var err error
		switch o.kind {
		case opGet, opGetAbsent, opGetGone:
			var v uint64
			var found bool
			v, found, err = t.cl.Get(k)
			wrong = found != (o.kind == opGet) || found && v != ks.value(k, o.ver)
		case opUpdate, opInsert:
			var r mccuckoo.InsertResult
			r, err = t.cl.Put(k, ks.value(k, o.ver))
			if err == nil && r.Status == mccuckoo.Failed {
				err = errFailedInsert
			}
			wrong = (r.Status == mccuckoo.Updated) != (o.kind == opUpdate)
		case opDelete, opDeleteGone:
			var removed bool
			removed, err = t.cl.Del(k)
			wrong = removed != (o.kind == opDelete)
		}
		return settle(o, wrong, err, bad)
	}
}

// settle turns one op's outcome into (wrong, failed): a failed write makes
// its key's state unknown, and ops on such keys are not checked.
func settle(o op, wrong bool, err error, bad *keySet) (bool, bool) {
	if err != nil {
		if !o.kind.isRead() {
			bad.add(o.idx)
		}
		return false, true
	}
	if wrong && bad.has(o.idx) {
		return false, false
	}
	return wrong, false
}

// readBackBatch is the key count of one read-back request.
const readBackBatch = 1000

// checkAll reads every key the run wrote and a sample of never-written keys
// through get, and counts answers that differ from the model's last write.
func checkAll(ks keyspace, m *kvModel, bad *keySet, get func(keys []uint64) ([]uint64, []bool, error)) (int64, error) {
	var idxs []uint32
	for i, v := range m.vers {
		if v > 0 && !bad.has(uint32(i)) {
			idxs = append(idxs, uint32(i))
		}
	}
	for i := uint32(0); i < readBackBatch; i++ {
		idxs = append(idxs, absentBase+i)
	}
	var wrong int64
	keys := make([]uint64, 0, readBackBatch)
	for len(idxs) > 0 {
		batch := idxs[:min(readBackBatch, len(idxs))]
		idxs = idxs[len(batch):]
		keys = keys[:0]
		for _, i := range batch {
			keys = append(keys, ks.key(i))
		}
		vals, found, err := get(keys)
		if err != nil {
			return wrong, fmt.Errorf("read-back: %w", err)
		}
		for x, i := range batch {
			switch {
			case i >= absentBase:
				if found[x] {
					wrong++
				}
			case found[x] == m.gone[i] || found[x] && vals[x] != ks.value(keys[x], m.vers[i]):
				wrong++
			}
		}
	}
	return wrong, nil
}

func (t *wireTarget) settle() error {
	runtime.GC()
	return nil
}

func (t *wireTarget) readBack(ks keyspace, m *kvModel, bad *keySet) (int64, error) {
	return checkAll(ks, m, bad, t.cl.GetBatch)
}

// clusterTarget is a clusterFixture driven through its cluster.Client.
type clusterTarget struct{ fx *clusterFixture }

func (t *clusterTarget) close() { t.fx.close() }

func (t *clusterTarget) do(ks keyspace, bad *keySet) doFunc {
	cl := t.fx.client
	return func(_ int, o op) (bool, bool) {
		k := ks.key(o.idx)
		var wrong bool
		var err error
		switch o.kind {
		case opGet, opGetAbsent, opGetGone:
			var v uint64
			var found bool
			v, found, err = cl.Get(k)
			wrong = found != (o.kind == opGet) || found && v != ks.value(k, o.ver)
		case opUpdate, opInsert:
			err = cl.Put(k, ks.value(k, o.ver))
		case opDelete, opDeleteGone:
			err = cl.Del(k)
		}
		return settle(o, wrong, err, bad)
	}
}

// settle waits for every replica to apply its peers' op logs, which lag
// the client's writes, then collects garbage.
func (t *clusterTarget) settle() error {
	err := t.fx.quiesce(10 * time.Second)
	runtime.GC()
	return err
}

func (t *clusterTarget) readBack(ks keyspace, m *kvModel, bad *keySet) (int64, error) {
	if err := t.settle(); err != nil {
		return 0, err
	}
	return checkAll(ks, m, bad, t.fx.client.GetBatch)
}

func runWireKV(c *runCtx) error {
	spec := wireSpec
	if c.small {
		spec.keys = 20_000
	}
	return runNet(c, spec, func(ks keyspace, tr *tracer) (target, time.Duration, float64, error) {
		h0 := heapAlloc()
		start := time.Now()
		sh, err := mccuckoo.NewSharded(1<<20, 8, mccuckoo.WithSeed(c.seed))
		if err != nil {
			return nil, 0, 0, err
		}
		keys := make([]uint64, 0, readBackBatch)
		vals := make([]uint64, 0, readBackBatch)
		for i := 0; i < spec.keys; i += readBackBatch {
			keys, vals = keys[:0], vals[:0]
			for j := i; j < min(i+readBackBatch, spec.keys); j++ {
				k := ks.key(uint32(j))
				keys, vals = append(keys, k), append(vals, ks.value(k, 0))
			}
			for x, r := range sh.InsertBatch(keys, vals) {
				if r.Status == mccuckoo.Failed {
					return nil, 0, 0, fmt.Errorf("preload: insert of key %d failed", i+x)
				}
			}
		}
		setup := time.Since(start)
		mem := float64(heapAlloc()-h0) / float64(sh.Len())
		start = time.Now()
		t := &wireTarget{}
		var store mccuckoo.BatchStore = sh
		if tr != nil {
			t.probe, t.counts = newStoreProbe(sh, tr), &connCounts{}
			store = t.probe
		}
		if c.wrap != nil {
			store = c.wrap(store)
		}
		if t.srv, err = serve(store, t.counts); err != nil {
			return nil, 0, 0, err
		}
		wc := wire.ClientConfig{Addr: t.srv.addr, Conns: clientConns()}
		if t.counts != nil {
			wc.Dial = t.counts.dialer()
		}
		if t.cl, err = wire.Dial(wc); err != nil {
			t.srv.stop()
			return nil, 0, 0, err
		}
		return t, setup + time.Since(start), mem, nil
	})
}

func runClusterRW(c *runCtx) error {
	spec := clusterSpec
	if c.small {
		spec.keys = 5_000
	}
	return runNet(c, spec, func(ks keyspace, tr *tracer) (target, time.Duration, float64, error) {
		h0 := heapAlloc()
		start := time.Now()
		fx, err := startCluster(c, 1<<18, tr)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := fx.preload(ks, spec.keys); err != nil {
			fx.close()
			return nil, 0, 0, err
		}
		if err := fx.quiesce(10 * time.Second); err != nil {
			fx.close()
			return nil, 0, 0, err
		}
		setup := time.Since(start)
		// Heap held by the three nodes (tables, replication metadata,
		// servers) per stored copy of an item.
		mem := float64(heapAlloc()-h0) / float64(fx.items())
		return &clusterTarget{fx}, setup, mem, nil
	})
}

// refWindows is how many windows the reference phase's GET percentiles are
// taken over; PUTs, rarer, use a third as many.
const refWindows = 18

// wideWindows merges every k adjacent windows of l into one.
func wideWindows(l *latencies, k int) {
	for i := range l.window {
		l.window[i] /= uint8(k)
	}
}

type setupFunc func(ks keyspace, tr *tracer) (t target, setup time.Duration, memPerItem float64, err error)

func runNet(c *runCtx, spec netSpec, setup setupFunc) error {
	ks := newKeyspace(c.seed, c.workload)
	var setups, mems []float64
	var t target
	var tr *tracer
	if c.trace {
		tr = newTracer()
		tr.on.Store(false)
	}
	for len(setups) == 0 || moreSetups(c, len(setups), sum(setups)) {
		if t != nil {
			t.close()
		}
		var d time.Duration
		var mem float64
		var err error
		if t, d, mem, err = setup(ks, tr); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		mems = append(mems, mem)
	}
	defer t.close()
	model := newKVModel(spec.keys)
	gen := spec.newGen(c.seed, model)
	bad := &keySet{}
	do := t.do(ks, bad)
	c.printf("setup keys=%d setups_s=%.3f", spec.keys, setups)
	secs := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		if err := traceNet(c, spec, t, tr, ks, gen, do, secs); err != nil {
			return err
		}
	} else {
		c.set("setup_s", median(setups), "s")
		c.set("mem_bytes_per_item", median(mems), "B/item")
		// The reference phase runs first, on a settled system; the capacity
		// phase, which saturates it, runs last.
		refDur := secs - secs/5 - secs*time.Duration(len(spec.ladder))/20
		if err := t.settle(); err != nil {
			return err
		}
		st := openLoop(gen, newArrivals(c.seed^0x4ef, spec.ref), spec.ref, refDur, spec.workers, refWindows, do)
		c.tally(st)
		if !stepOK(c, spec, st) {
			c.flag("reference rate %g did not meet its limit or ran with a dominant generator lag or a growing backlog", spec.ref)
		}
		// Writes are rarer than reads, so their windows are three times wider.
		reportSteal(c, "the reference phase", st.quiet)
		wideWindows(&st.put, 3)
		setLatencies(c, &st.get, &st.put, st.quiet, widen(st.quiet, 3))
		c.printf("latency at %g/s from due time: get %s; put %s", spec.ref, tail(sortedCopy(st.get.ns)), tail(sortedCopy(st.put.ns)))
		maxRate := 0.0
		for i, rate := range spec.ladder {
			if err := t.settle(); err != nil {
				return err
			}
			st := openLoop(gen, newArrivals(c.seed+uint64(i), rate), rate, secs/20, spec.workers, 1, do)
			c.tally(st)
			if stepOK(c, spec, st) {
				maxRate = rate
			}
		}
		c.printf("metric max_rate_rps = %g 1/s (GET p99 limit %v)", maxRate, spec.limit)
		// Capacity: one closed-loop client per worker, each on its own keys.
		if err := t.settle(); err != nil {
			return err
		}
		capSt := closedLoop(gen.split(spec.workers), secs/5, 20, do)
		c.tally(capSt)
		reportSteal(c, "the capacity phase", capSt.quiet)
		c.set("ops_per_s", capSt.opsPerSec(), "1/s")
		c.printf("capacity closed-loop clients=%d ops=%d get_p50=%.1fus", spec.workers, capSt.ops, us(quantile(sortedCopy(capSt.get.ns), 0.5)))
	}
	wrong, err := t.readBack(ks, model, bad)
	c.wrong += wrong
	c.printf("read-back wrong=%d unknown-after-failure=%d", wrong, len(bad.m))
	return err
}

// stepOK prints one rate step and reports whether it counts toward
// max_rate_rps: the generator kept up, the backlog did not grow, and the
// GET p99 met the limit.
func stepOK(c *runCtx, spec netSpec, st *phaseStats) bool {
	get := sortedCopy(st.get.ns)
	lag := sortedCopy(st.lag.ns)
	p50, p99 := quantile(get, 0.5), quantile(get, 0.99)
	lag50, lag99 := quantile(lag, 0.5), quantile(lag, 0.99)
	// The generator's lag dominates when it is at least half the latency.
	lagged := 2*lag50 >= p50 || 2*lag99 >= p99
	growing := float64(st.backlogEnd) > max(16, st.rate*0.002)
	ok := !lagged && !growing && st.failed == 0 && time.Duration(p99) <= spec.limit
	c.printf("step rate=%g ops=%d get_p50=%.1fus get_p99=%.1fus lag_p50=%.1fus lag_p99=%.1fus backlog_max=%d backlog_end=%d valid=%v meets_limit=%v",
		st.rate, st.ops, us(p50), us(p99), us(lag50), us(lag99), st.backlogMax, st.backlogEnd,
		!lagged && !growing, time.Duration(p99) <= spec.limit)
	return ok
}

// traceNet runs the untraced and traced passes of an open-loop workload at
// its reference rate and reports the layers it drives; the ladder fills in
// the rest.
func traceNet(c *runCtx, spec netSpec, t target, tr *tracer, ks keyspace, gen *kvGen, do doFunc, secs time.Duration) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u := openLoop(gen, newArrivals(c.seed^0x4ef, spec.ref), spec.ref, secs/2, spec.workers, 1, do)
	runtime.ReadMemStats(&ms1)
	c.tally(u)
	c.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(u.ops), "1/op")
	c.set("runtime.gc_cycles_per_kop", float64(ms1.NumGC-ms0.NumGC)*1000/float64(u.ops), "1/kop")
	lag := sortedCopy(u.lag.ns)
	c.set("loadgen.lag_p50_us", us(quantile(lag, 0.5)), "us")
	c.set("loadgen.lag_p99_us", us(quantile(lag, 0.99)), "us")
	c.set("loadgen.backlog_max", float64(u.backlogMax), "count")

	var nt *netTrace
	switch t := t.(type) {
	case *wireTarget:
		nt = newNetTrace(t.counts, t.srv.busy, nil)
	case *clusterTarget:
		nt = newNetTrace(t.fx.counts, t.fx.busy, t.fx)
	}
	tr.on.Store(true)
	traced := openLoop(gen, newArrivals(c.seed^0x4ef^1, spec.ref), spec.ref, secs/2, spec.workers, 1, spanned(tr, ks, do))
	tr.on.Store(false)
	c.tally(traced)
	nt.report(tr, traced, c.set)
	uSvc, tSvc := quantile(sortedCopy(u.getSvc.ns), 0.5), quantile(sortedCopy(traced.getSvc.ns), 0.5)
	c.set("trace.overhead_ratio", float64(uSvc)/float64(tSvc), "ratio")
	return ladder(c, tr, ks, (1<<20)/8/3)
}

// spanned records a client span around every op do executes.
func spanned(tr *tracer, ks keyspace, do doFunc) doFunc {
	return func(w int, o op) (bool, bool) {
		t0 := tr.now()
		wrong, failed := do(w, o)
		name := spanClientGet
		switch {
		case o.kind == opDelete || o.kind == opDeleteGone:
			name = spanClientDel
		case !o.kind.isRead():
			name = spanClientPut
		}
		tr.record(name, t0, tr.now(), ks.key(o.idx))
		return wrong, failed
	}
}

// netTrace holds the counters of one traced network pass, read before it:
// every conn's traffic, the servers' BUSY count and, for a cluster, the
// client's metrics and the table writes under every node. For a cluster it
// also samples the replica lag through the pass.
type netTrace struct {
	counts  *connCounts
	busy    func() int64
	fx      *clusterFixture // nil: not a cluster
	conns   [3]int64
	busy0   int64
	inserts int64
	cm      cluster.Metrics
	lagMax  int64
	stop    chan struct{}
	done    chan struct{}
}

func newNetTrace(counts *connCounts, busy func() int64, fx *clusterFixture) *netTrace {
	nt := &netTrace{counts: counts, busy: busy, fx: fx, conns: counts.snapshot(), busy0: busy()}
	if fx == nil {
		return nt
	}
	nt.inserts = fx.tableInserts()
	nt.cm = fx.client.MetricsSnapshot()
	nt.stop, nt.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(nt.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-nt.stop:
				return
			case <-tick.C:
				nt.lagMax = max(nt.lagMax, fx.maxLag())
			}
		}
	}()
	return nt
}

// report sets the metrics of the traced pass st through set.
func (nt *netTrace) report(tr *tracer, st *phaseStats, set func(string, float64, string)) {
	if nt.fx != nil {
		nt.stopSampler()
		clusterReport(nt, st, set)
	}
	conns := nt.counts.snapshot()
	ops := float64(st.ops)
	set("wire.conn_reads_per_op", float64(conns[0]-nt.conns[0])/ops, "1/op")
	set("wire.conn_writes_per_op", float64(conns[1]-nt.conns[1])/ops, "1/op")
	set("wire.bytes_per_op", float64(conns[2]-nt.conns[2])/ops, "B/op")
	set("wire.busy_per_op", float64(nt.busy()-nt.busy0)/ops, "1/op")
	lookup := tr.medianNs(spanShardLookup)
	set("shard.lookup_ns", lookup, "ns")
	set("shard.insert_ns", tr.medianNs(spanShardInsert), "ns")
	svc := float64(quantile(sortedCopy(st.getSvc.ns), 0.5))
	set("wire.outside_store_us", (svc-lookup)/1e3, "us")
}

// stopSampler stops the replica-lag sampler and waits for it.
func (nt *netTrace) stopSampler() {
	close(nt.stop)
	<-nt.done
}

// clusterReport sets the cluster-layer metrics of the pass st; the lag
// sampler must have stopped.
func clusterReport(nt *netTrace, st *phaseStats, set func(string, float64, string)) {
	fx := nt.fx
	cm := fx.client.MetricsSnapshot()
	reads, writes := cm.Reads-nt.cm.Reads, cm.Writes-nt.cm.Writes
	var trips int64
	for addr, n := range cm.PeerTrips {
		trips += n - nt.cm.PeerTrips[addr]
	}
	set("cluster.table_writes_per_put", float64(fx.tableInserts()-nt.inserts)/float64(max(writes, 1)), "ratio")
	set("cluster.repairs_per_get", float64(cm.Repairs-nt.cm.Repairs)/float64(max(reads, 1)), "1/op")
	set("cluster.peer_trips_per_op", float64(trips)/float64(max(st.ops, 1)), "1/op")
	set("cluster.degraded_reads", float64(cm.DegradedReads-nt.cm.DegradedReads), "count")
	set("cluster.replica_lag_max", float64(nt.lagMax), "count")
	set("cluster.ack_skew_p50_us", histP50(cm.AckSkew, nt.cm.AckSkew)/1e3, "us")
}

// histP50 estimates the median of the samples added between two snapshots
// of a power-of-two histogram, interpolating inside the median's bucket.
func histP50(after, before telemetry.HistSnapshot) float64 {
	var count int64
	for i := range after.Buckets {
		count += after.Buckets[i] - before.Buckets[i]
	}
	if count == 0 {
		return 0
	}
	var seen int64
	for i := range after.Buckets {
		n := after.Buckets[i] - before.Buckets[i]
		if n == 0 {
			continue
		}
		if 2*(seen+n) >= count {
			if i == 0 {
				return 0
			}
			lo := float64(int64(1) << (i - 1))
			return lo + lo*float64(count/2-seen)/float64(n)
		}
		seen += n
	}
	return 0
}

func (f *clusterFixture) busy() int64 {
	var total int64
	for _, n := range f.nodes {
		total += n.srv.busy()
	}
	return total
}
