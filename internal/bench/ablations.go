package bench

import (
	"fmt"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/metrics"
	"mccuckoo/internal/workload"
)

// AblationResolver compares the collision resolvers inside both multi-copy
// schemes (§III.D claims any resolver plugs in): the paper's random walk,
// MinCounter, and — single-slot only — the breadth-first path search, which
// ends a path at the first bucket whose counter is not 1. Kicks per insertion
// come with the off-chip reads and writes they cost: BFS reads more buckets
// to find a short path and then writes far fewer.
func AblationResolver(o Options) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	variants := []struct {
		name   string
		scheme Scheme
		policy kv.KickPolicy
	}{
		{"McCuckoo/random-walk", SchemeMcCuckoo, kv.RandomWalk},
		{"McCuckoo/min-counter", SchemeMcCuckoo, kv.MinCounter},
		{"McCuckoo/bfs", SchemeMcCuckoo, kv.BFS},
		{"B-McCuckoo/random-walk", SchemeBMcCuckoo, kv.RandomWalk},
		{"B-McCuckoo/min-counter", SchemeBMcCuckoo, kv.MinCounter},
	}
	kicks := make([]*metrics.Series, len(variants))
	reads := make([]*metrics.Series, len(variants))
	writes := make([]*metrics.Series, len(variants))
	for i, v := range variants {
		kicks[i] = metrics.NewSeries(v.name)
		reads[i] = metrics.NewSeries(v.name)
		writes[i] = metrics.NewSeries(v.name)
		loads := loadsFor(v.scheme, StandardLoads)
		for run := 0; run < o.Runs; run++ {
			points, err := insertSweepTC(v.scheme, o, run, loads, tableConfig{policy: v.policy})
			if err != nil {
				return nil, err
			}
			for _, p := range points {
				kicks[i].Add(p.load*100, p.kicks)
				reads[i].Add(p.load*100, p.offReads)
				writes[i].Add(p.load*100, p.offWrites)
			}
		}
	}
	table := func(id, what string, series []*metrics.Series) *Result {
		return &Result{
			ID: id,
			Table: &metrics.Table{
				Title:  "Ablation — " + what + " per insertion, random-walk vs MinCounter vs BFS resolver",
				XLabel: "load",
				XFmt:   "%.0f%%",
				YFmt:   "%.4f",
				Series: series,
			},
		}
	}
	return []*Result{
		table("abl-resolver", "kick-outs", kicks),
		table("abl-resolver-reads", "off-chip reads", reads),
		table("abl-resolver-writes", "off-chip writes", writes),
	}, nil
}

// AblationPrescreen compares McCuckoo lookups with the counter pre-screen on
// and off (§IV.F notes the counters can be skipped; this quantifies what
// they buy in off-chip reads).
func AblationPrescreen(o Options) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	variants := []struct {
		name     string
		positive bool
		disable  bool
	}{
		{"hit/prescreen-on", true, false},
		{"hit/prescreen-off", true, true},
		{"miss/prescreen-on", false, false},
		{"miss/prescreen-off", false, true},
	}
	series := make([]*metrics.Series, len(variants))
	loads := loadsFor(SchemeMcCuckoo, StandardLoads)
	for i, v := range variants {
		series[i] = metrics.NewSeries(v.name)
		for run := 0; run < o.Runs; run++ {
			points, err := lookupSweepTC(SchemeMcCuckoo, o, run, loads, v.positive,
				tableConfig{disablePrescreen: v.disable})
			if err != nil {
				return nil, err
			}
			for _, p := range points {
				series[i].Add(p.load*100, p.offReads)
			}
		}
	}
	return []*Result{{
		ID: "abl-prescreen",
		Table: &metrics.Table{
			Title:  "Ablation — off-chip reads per McCuckoo lookup, counter pre-screen on vs off",
			XLabel: "load",
			XFmt:   "%.0f%%",
			YFmt:   "%.4f",
			Series: series,
		},
	}}, nil
}

// AblationDeletion compares the two deletion modes (§III.B.3): after a batch
// of deletions, counter-reset mode loses the zero-counter shortcut while
// tombstone mode keeps it, at the cost of a wider counter array.
func AblationDeletion(o Options) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	rows := [][]string{{"mode", "counter bits", "miss reads/op (no deletes)", "miss reads/op (after deletes)"}}
	for _, mode := range []core.DeletionMode{core.ResetCounters, core.Tombstone} {
		var before, after metrics.Agg
		var bits uint
		for run := 0; run < o.Runs; run++ {
			b, a, w, err := deletionMissCost(o, run, mode)
			if err != nil {
				return nil, err
			}
			before.Add(b)
			after.Add(a)
			bits = w
		}
		rows = append(rows, []string{
			mode.String(),
			fmt.Sprintf("%d", bits),
			fmt.Sprintf("%.4f", before.Mean()),
			fmt.Sprintf("%.4f", after.Mean()),
		})
	}
	return []*Result{{
		ID:    "abl-deletion",
		Title: "Ablation — negative-lookup cost across deletion modes (McCuckoo, 60% load, 20% deleted)",
		Rows:  rows,
	}}, nil
}

// deletionMissCost fills a McCuckoo table to 60%, measures negative-lookup
// reads, deletes a fifth of the items, and measures again.
func deletionMissCost(o Options, run int, mode core.DeletionMode) (before, after float64, counterBits uint, err error) {
	seed := o.runSeed(run)
	cfg := core.Config{
		D: 3, BucketsPerTable: o.Capacity / 3, MaxLoop: o.MaxLoop,
		Seed: seed, Deletion: mode, StashEnabled: true, AssumeUniqueKeys: true,
	}
	tab, err := core.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	counterBits = uint(8 * tab.OnChipBytes() / tab.Capacity())
	target := int(0.60 * float64(tab.Capacity()))
	keys := workload.Unique(seed, target)
	for _, k := range keys {
		if tab.Insert(k, k+1).Status == kv.Failed {
			return 0, 0, 0, fmt.Errorf("bench: fill failed")
		}
	}
	negatives := workload.Negative(seed, o.Queries, keys)
	missCost := func() float64 {
		snap := tab.Meter().Snapshot()
		for _, k := range negatives {
			tab.Lookup(k)
		}
		d := tab.Meter().Snapshot().Sub(snap)
		return float64(d.OffChipReads) / float64(len(negatives))
	}
	before = missCost()
	s := hashutil.Mix64(seed + 5)
	for i := 0; i < target/5; i++ {
		idx := int(hashutil.SplitMix64(&s) % uint64(target))
		tab.Delete(keys[idx]) // duplicates simply miss
	}
	after = missCost()
	return before, after, counterBits, nil
}

// AblationBaselineResolver compares the baseline cuckoo table's three
// collision resolvers — BFS (the original strategy), random walk, and
// MinCounter — in both relocations and off-chip reads per insertion. It
// situates McCuckoo's contribution: the counters remove the blindness that
// forces single-copy schemes to pay in one currency or the other.
func AblationBaselineResolver(o Options) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	policies := []kv.KickPolicy{kv.BFS, kv.RandomWalk, kv.MinCounter}
	kicks := make([]*metrics.Series, len(policies))
	reads := make([]*metrics.Series, len(policies))
	loads := loadsFor(SchemeCuckoo, StandardLoads)
	for i, pol := range policies {
		kicks[i] = metrics.NewSeries("Cuckoo/" + pol.String())
		reads[i] = metrics.NewSeries("Cuckoo/" + pol.String())
		for run := 0; run < o.Runs; run++ {
			points, err := insertSweepTC(SchemeCuckoo, o, run, loads, tableConfig{policy: pol})
			if err != nil {
				return nil, err
			}
			for _, p := range points {
				kicks[i].Add(p.load*100, p.kicks)
				reads[i].Add(p.load*100, p.offReads)
			}
		}
	}
	return []*Result{
		{
			ID: "abl-bfs-kicks",
			Table: &metrics.Table{
				Title:  "Ablation — baseline resolver, relocations per insertion",
				XLabel: "load",
				XFmt:   "%.0f%%",
				YFmt:   "%.4f",
				Series: kicks,
			},
		},
		{
			ID: "abl-bfs-reads",
			Table: &metrics.Table{
				Title:  "Ablation — baseline resolver, off-chip reads per insertion",
				XLabel: "load",
				XFmt:   "%.0f%%",
				YFmt:   "%.4f",
				Series: reads,
			},
		},
	}, nil
}

// AblationHashFunctions sweeps the hash-function count d for McCuckoo,
// quantifying the paper's claim that "d=3 is actually sufficient for most
// practical scenarios": d=2 fails early, d=4 buys little extra load for a
// wider counter array and more candidate probes.
func AblationHashFunctions(o Options) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	rows := [][]string{{"d", "counter bits", "first-failure load", "miss reads/op @50%", "redundant writes/slot"}}
	for _, d := range []int{2, 3, 4} {
		var fail, miss, redundant metrics.Agg
		var bits uint
		for run := 0; run < o.Runs; run++ {
			f, mr, rw, b, err := dSweepPoint(o, run, d)
			if err != nil {
				return nil, err
			}
			fail.Add(f)
			miss.Add(mr)
			redundant.Add(rw)
			bits = b
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", bits),
			fmt.Sprintf("%.2f%%", fail.Mean()*100),
			fmt.Sprintf("%.4f", miss.Mean()),
			fmt.Sprintf("%.4f", redundant.Mean()),
		})
	}
	return []*Result{{
		ID:    "abl-d",
		Title: "Ablation — hash-function count d in McCuckoo (maxloop 500)",
		Rows:  rows,
		Notes: []string{"the paper fixes d=3: enough for >90% load with 2-bit counters"},
	}}, nil
}

// dSweepPoint measures one run of the d ablation: the first-failure load
// (no stash), then on a fresh stashed table at 50% load the negative-lookup
// cost and the per-slot redundant writes.
func dSweepPoint(o Options, run, d int) (failLoad, missReads, redundantPerSlot float64, counterBits uint, err error) {
	seed := o.runSeed(run)
	capacity := o.Capacity / d * d
	mk := func(stash bool) (*core.Table, error) {
		return core.New(core.Config{
			D: d, BucketsPerTable: capacity / d, MaxLoop: o.MaxLoop,
			Seed: seed, StashEnabled: stash, AssumeUniqueKeys: true,
		})
	}
	tab, err := mk(false)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	counterBits = uint(8 * tab.OnChipBytes() / tab.Capacity())
	keys := workload.Unique(seed, tab.Capacity())
	failLoad = 1.0
	for _, k := range keys {
		if tab.Insert(k, k).Status == kv.Failed {
			failLoad = tab.LoadRatio()
			break
		}
	}

	tab2, err := mk(true)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	half := tab2.Capacity() / 2
	for _, k := range keys[:half] {
		if tab2.Insert(k, k).Status == kv.Failed {
			return 0, 0, 0, 0, fmt.Errorf("bench: d=%d fill failed", d)
		}
	}
	redundantPerSlot = float64(tab2.RedundantWrites()) / float64(tab2.Capacity())
	negatives := workload.Negative(seed, o.Queries, keys)
	snap := tab2.Meter().Snapshot()
	for _, k := range negatives {
		tab2.Lookup(k)
	}
	delta := tab2.Meter().Snapshot().Sub(snap)
	missReads = float64(delta.OffChipReads) / float64(len(negatives))
	return failLoad, missReads, redundantPerSlot, counterBits, nil
}
