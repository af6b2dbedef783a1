package mccuckoo_test

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation. Each target runs the corresponding experiment from
// internal/bench at a reduced capacity (so `go test -bench=.` finishes in
// minutes) and reports the experiment's headline quantity via
// b.ReportMetric. The full-scale figures are produced by cmd/mcbench; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// The second half holds per-operation microbenchmarks of the public API,
// the numbers a downstream user cares about when adopting the library.

import (
	"fmt"
	"testing"

	"mccuckoo"

	"mccuckoo/internal/bench"
	"mccuckoo/internal/hashutil"
)

// benchOptions returns the reduced-scale experiment options used by the
// figure benchmarks.
func benchOptions() bench.Options {
	return bench.Options{Capacity: 9 * 1024, MaxLoop: 500, Runs: 1, Seed: 1, Queries: 5000}
}

// metricAt extracts series `name` at x from a rendered result table.
func metricAt(b *testing.B, res *bench.Result, name string, x float64) float64 {
	b.Helper()
	if res.Table == nil {
		b.Fatalf("result %s has no series table", res.ID)
	}
	for _, s := range res.Table.Series {
		if s.Name == name {
			if y, ok := s.At(x); ok {
				return y
			}
			b.Fatalf("series %q has no point at %g", name, x)
		}
	}
	b.Fatalf("series %q not found in %s", name, res.ID)
	return 0
}

func runExperiment(b *testing.B, run func(bench.Options) ([]*bench.Result, error)) []*bench.Result {
	b.Helper()
	var results []*bench.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return results
}

// BenchmarkFig9KickOuts regenerates Fig. 9 and reports kick-outs per
// insertion at 85% load for the ternary schemes.
func BenchmarkFig9KickOuts(b *testing.B) {
	res := runExperiment(b, bench.Fig9)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 85), "cuckoo-kicks@85%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 85), "mccuckoo-kicks@85%")
}

// BenchmarkFig10MemoryAccess regenerates Fig. 10 and reports off-chip reads
// and writes per insertion at 85% load.
func BenchmarkFig10MemoryAccess(b *testing.B) {
	res := runExperiment(b, bench.Fig10)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 85), "cuckoo-reads@85%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 85), "mccuckoo-reads@85%")
	b.ReportMetric(metricAt(b, res[1], "McCuckoo", 85), "mccuckoo-writes@85%")
}

// BenchmarkTableIFirstCollision regenerates Table I and reports the first
// collision loads.
func BenchmarkTableIFirstCollision(b *testing.B) {
	res := runExperiment(b, bench.TableI)
	for _, row := range res[0].Rows[1:] {
		var v float64
		if _, err := fmt.Sscanf(row[1], "%f%%", &v); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, row[0]+"-first-collision-%")
	}
}

// BenchmarkFig11FirstFailure regenerates Fig. 11 and reports the failure
// load at maxloop 500.
func BenchmarkFig11FirstFailure(b *testing.B) {
	res := runExperiment(b, bench.Fig11)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 500), "cuckoo-fail-load-%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 500), "mccuckoo-fail-load-%")
	b.ReportMetric(metricAt(b, res[0], "B-McCuckoo", 500), "bmccuckoo-fail-load-%")
}

// BenchmarkFig12LookupHit regenerates Fig. 12 and reports reads per positive
// lookup at 85% load.
func BenchmarkFig12LookupHit(b *testing.B) {
	res := runExperiment(b, bench.Fig12)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 85), "cuckoo-reads@85%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 85), "mccuckoo-reads@85%")
}

// BenchmarkFig13LookupMiss regenerates Fig. 13 and reports reads per
// negative lookup at 50% load — the counters' Bloom-filter effect.
func BenchmarkFig13LookupMiss(b *testing.B) {
	res := runExperiment(b, bench.Fig13)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 50), "cuckoo-reads@50%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 50), "mccuckoo-reads@50%")
}

// BenchmarkFig14Delete regenerates Fig. 14 and reports reads per deletion at
// 50% load.
func BenchmarkFig14Delete(b *testing.B) {
	res := runExperiment(b, bench.Fig14)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 50), "cuckoo-reads@50%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 50), "mccuckoo-reads@50%")
}

// BenchmarkTableIIStash regenerates Table II and reports the stash share at
// the top load with maxloop 500.
func BenchmarkTableIIStash(b *testing.B) {
	res := runExperiment(b, bench.TableII)
	last := res[0].Rows[len(res[0].Rows)-1]
	var share float64
	if _, err := fmt.Sscanf(last[3], "%f%%", &share); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(share, "stash-share@93%-%")
}

// BenchmarkTableIIIStash regenerates Table III and reports the stash share
// at 100% load with maxloop 500.
func BenchmarkTableIIIStash(b *testing.B) {
	res := runExperiment(b, bench.TableIII)
	last := res[0].Rows[len(res[0].Rows)-1]
	var share float64
	if _, err := fmt.Sscanf(last[3], "%f%%", &share); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(share, "stash-share@100%-%")
}

// BenchmarkFig15InsertLatency regenerates Fig. 15 and reports the modelled
// insertion latency at 80% load (8-byte records).
func BenchmarkFig15InsertLatency(b *testing.B) {
	res := runExperiment(b, bench.Fig15)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 80), "cuckoo-ns@80%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 80), "mccuckoo-ns@80%")
}

// BenchmarkFig16LookupLatency regenerates Fig. 16 and reports the modelled
// negative-lookup latency at 128-byte records, where skipping bucket reads
// pays most.
func BenchmarkFig16LookupLatency(b *testing.B) {
	res := runExperiment(b, bench.Fig16)
	b.ReportMetric(metricAt(b, res[1], "Cuckoo", 128), "cuckoo-miss-ns@128B")
	b.ReportMetric(metricAt(b, res[1], "McCuckoo", 128), "mccuckoo-miss-ns@128B")
}

// BenchmarkAblationResolver regenerates the resolver ablation.
func BenchmarkAblationResolver(b *testing.B) {
	res := runExperiment(b, bench.AblationResolver)
	b.ReportMetric(metricAt(b, res[0], "McCuckoo/random-walk", 90), "rw-kicks@90%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo/min-counter", 90), "mc-kicks@90%")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo/bfs", 90), "bfs-kicks@90%")
}

// BenchmarkAblationPrescreen regenerates the pre-screen ablation.
func BenchmarkAblationPrescreen(b *testing.B) {
	res := runExperiment(b, bench.AblationPrescreen)
	b.ReportMetric(metricAt(b, res[0], "miss/prescreen-on", 50), "on-reads@50%")
	b.ReportMetric(metricAt(b, res[0], "miss/prescreen-off", 50), "off-reads@50%")
}

// BenchmarkAblationDeletion regenerates the deletion-mode ablation.
func BenchmarkAblationDeletion(b *testing.B) {
	res := runExperiment(b, bench.AblationDeletion)
	if len(res[0].Rows) != 3 {
		b.Fatalf("unexpected rows: %d", len(res[0].Rows))
	}
	var reset, tomb float64
	if _, err := fmt.Sscanf(res[0].Rows[1][3], "%f", &reset); err != nil {
		b.Fatal(err)
	}
	if _, err := fmt.Sscanf(res[0].Rows[2][3], "%f", &tomb); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(reset, "reset-miss-reads")
	b.ReportMetric(tomb, "tombstone-miss-reads")
}

// --- per-operation microbenchmarks of the public API ---

func BenchmarkMapString(b *testing.B) {
	m, err := mccuckoo.NewMap[string, int](3*65536, mccuckoo.StringHasher, mccuckoo.WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 50000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		if err := m.Set(keys[i], i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(keys[i%len(keys)]); !ok {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkAblationBaselineResolver regenerates the baseline-resolver
// ablation (BFS vs random walk vs MinCounter).
func BenchmarkAblationBaselineResolver(b *testing.B) {
	res := runExperiment(b, bench.AblationBaselineResolver)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo/bfs", 85), "bfs-kicks@85%")
	b.ReportMetric(metricAt(b, res[0], "Cuckoo/random-walk", 85), "rw-kicks@85%")
}

// BenchmarkExtDistribution regenerates the latency-distribution extension
// and reports the p99 insertion latencies at 85% load.
func BenchmarkExtDistribution(b *testing.B) {
	res := runExperiment(b, bench.ExtDistribution)
	var cu, mc float64
	for _, row := range res[0].Rows[1:] {
		if row[1] != "insert" {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(row[5], "%f", &v); err != nil {
			b.Fatal(err)
		}
		switch row[0] {
		case "Cuckoo":
			cu = v
		case "McCuckoo":
			mc = v
		}
	}
	b.ReportMetric(cu, "cuckoo-insert-p99-ns")
	b.ReportMetric(mc, "mccuckoo-insert-p99-ns")
}

// BenchmarkAblationHashFunctions regenerates the d-sweep ablation.
func BenchmarkAblationHashFunctions(b *testing.B) {
	res := runExperiment(b, bench.AblationHashFunctions)
	for _, row := range res[0].Rows[1:] {
		var v float64
		if _, err := fmt.Sscanf(row[2], "%f%%", &v); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, "d"+row[0]+"-fail-load-%")
	}
}

// BenchmarkExtOnChipBudget regenerates the on-chip budget extension and
// reports miss reads at equal memory.
func BenchmarkExtOnChipBudget(b *testing.B) {
	res := runExperiment(b, bench.ExtOnChipBudget)
	for _, row := range res[0].Rows[1:] {
		var v float64
		if _, err := fmt.Sscanf(row[3], "%f", &v); err != nil {
			b.Fatal(err)
		}
		switch row[0] {
		case "McCuckoo (2-bit counters)":
			b.ReportMetric(v, "mccuckoo-miss-reads")
		case "Cuckoo+CBF equal bits":
			b.ReportMetric(v, "cbf-equal-miss-reads")
		}
	}
}

// BenchmarkConcurrentReaders measures parallel lookup throughput through
// the one-writer-many-readers wrapper at increasing reader counts.
func BenchmarkConcurrentReaders(b *testing.B) {
	for _, readers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			inner, err := mccuckoo.New(3*65536, mccuckoo.WithSeed(7), mccuckoo.WithUniqueKeys())
			if err != nil {
				b.Fatal(err)
			}
			n := int(0.8 * float64(inner.Capacity()))
			s := uint64(9)
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = hashutil.SplitMix64(&s)
				inner.Insert(keys[i], keys[i])
			}
			c := mccuckoo.NewConcurrent(inner)
			b.ResetTimer()
			b.SetParallelism(readers)
			b.RunParallel(func(pb *testing.PB) {
				ls := hashutil.Mix64(uint64(readers))
				for pb.Next() {
					k := keys[hashutil.SplitMix64(&ls)%uint64(len(keys))]
					if _, ok := c.Lookup(k); !ok {
						b.Fail()
					}
				}
			})
		})
	}
}

// BenchmarkPathwiseVsInPlace compares the two insertion protocols at high
// load: the in-place walk versus two-phase path execution.
func BenchmarkPathwiseVsInPlace(b *testing.B) {
	for _, pathwise := range []bool{false, true} {
		name := "in-place"
		if pathwise {
			name = "pathwise"
		}
		b.Run(name, func(b *testing.B) {
			tab, err := mccuckoo.New(3*32768, mccuckoo.WithSeed(11), mccuckoo.WithUniqueKeys())
			if err != nil {
				b.Fatal(err)
			}
			n := int(0.88 * float64(tab.Capacity()))
			s := uint64(13)
			for i := 0; i < n; i++ {
				tab.Insert(hashutil.SplitMix64(&s), 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := hashutil.SplitMix64(&s)
				if pathwise {
					tab.InsertPathwise(k, k)
				} else {
					tab.Insert(k, k)
				}
				b.StopTimer()
				tab.Delete(k)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkExtMixedWorkloads regenerates the YCSB-style mix extension and
// reports modelled throughput for the churn mix.
func BenchmarkExtMixedWorkloads(b *testing.B) {
	res := runExperiment(b, bench.ExtMixedWorkloads)
	for _, row := range res[0].Rows[1:] {
		if row[0] != "D: churn 45/45/10" {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(row[4], "%f", &v); err != nil {
			b.Fatal(err)
		}
		switch row[1] {
		case "Cuckoo":
			b.ReportMetric(v, "cuckoo-churn-mops")
		case "McCuckoo":
			b.ReportMetric(v, "mccuckoo-churn-mops")
		}
	}
}

// BenchmarkExtPipeline regenerates the pipelined-platform extension and
// reports depth-8 miss throughput.
func BenchmarkExtPipeline(b *testing.B) {
	res := runExperiment(b, bench.ExtPipeline)
	b.ReportMetric(metricAt(b, res[0], "Cuckoo", 8), "cuckoo-miss-mops@d8")
	b.ReportMetric(metricAt(b, res[0], "McCuckoo", 8), "mccuckoo-miss-mops@d8")
}

// BenchmarkShardedVsGlobalLock runs the concurrent throughput sweep at
// reduced scale — the goroutines × shards matrix of mcbench's concurrent
// mode — and reports wall-clock Mops/s for every variant at every goroutine
// count. The recorded baseline for this matrix lives in BENCH_shard.json.
func BenchmarkShardedVsGlobalLock(b *testing.B) {
	o := bench.DefaultConcurrentOptions()
	o.Capacity = 3 * 16384
	o.Ops = 150_000
	o.Goroutines = []int{1, 4, 8}
	o.Shards = []int{4, 16}
	var results []*bench.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = bench.ConcurrentSweep(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range results[0].Table.Series {
		for _, g := range o.Goroutines {
			b.ReportMetric(metricAt(b, results[0], s.Name, float64(g)),
				fmt.Sprintf("%s@%dg-Mops", s.Name, g))
		}
	}
}
