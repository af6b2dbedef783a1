package bench

import (
	"fmt"
	"io"

	"mccuckoo/internal/metrics"
)

// Result is one rendered experiment artifact: either a series table (one
// column per scheme over a shared x axis) or free-form rows.
type Result struct {
	ID    string
	Table *metrics.Table
	Rows  [][]string
	Title string
	Notes []string
}

// Render writes the result to w.
func (r *Result) Render(w io.Writer) error {
	if r.Table != nil {
		if err := r.Table.Render(w); err != nil {
			return err
		}
	}
	if r.Rows != nil {
		if err := metrics.RenderRows(w, r.Title, r.Rows); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the result's data as CSV (no title or notes).
func (r *Result) RenderCSV(w io.Writer) error {
	if r.Table != nil {
		return r.Table.RenderCSV(w)
	}
	return metrics.RenderRowsCSV(w, r.Rows)
}

// Runner produces the results of one paper experiment.
type Runner func(Options) ([]*Result, error)

// Experiment binds an id to its runner.
type Experiment struct {
	ID   string
	Desc string
	Run  Runner
}

// Experiments lists every reproduced table and figure plus the ablations.
var Experiments = []Experiment{
	{"tab1", "Table I: load ratio at first collision", TableI},
	{"fig9", "Fig. 9: kick-outs per insertion vs load", Fig9},
	{"fig10", "Fig. 10: memory accesses per insertion vs load", Fig10},
	{"fig11", "Fig. 11: load ratio at first insertion failure vs maxloop", Fig11},
	{"fig12", "Fig. 12: memory accesses per lookup, existing items", Fig12},
	{"fig13", "Fig. 13: memory accesses per lookup, non-existing items", Fig13},
	{"fig14", "Fig. 14: memory accesses per deletion", Fig14},
	{"tab2", "Table II: stash statistics, 3-hash 1-slot McCuckoo", TableII},
	{"tab3", "Table III: stash statistics, 3-hash 3-slot McCuckoo", TableIII},
	{"fig15", "Fig. 15: insertion latency and throughput (platform model)", Fig15},
	{"fig16", "Fig. 16: lookup latency and throughput (platform model)", Fig16},
	{"abl-resolver", "Ablation: random-walk vs MinCounter vs BFS resolver in McCuckoo", AblationResolver},
	{"abl-bfs", "Ablation: BFS vs random-walk vs MinCounter in the baseline", AblationBaselineResolver},
	{"abl-prescreen", "Ablation: lookup counter pre-screen on vs off", AblationPrescreen},
	{"abl-deletion", "Ablation: counter-reset vs tombstone deletion", AblationDeletion},
	{"abl-d", "Ablation: hash-function count d in McCuckoo", AblationHashFunctions},
	{"ext-dist", "Extension: latency distributions via the discrete-event platform simulator", ExtDistribution},
	{"ext-onchip", "Extension: on-chip budget vs Bloom pre-screens (contribution #2)", ExtOnChipBudget},
	{"ext-workload", "Extension: uniform vs DocWords-shaped keys (substitution validation)", ExtWorkloadSensitivity},
	{"ext-mixed", "Extension: YCSB-style operation mixes across the four schemes", ExtMixedWorkloads},
	{"ext-smart", "Extension: SmartCuckoo loop predetermination vs McCuckoo counters at d=2", ExtSmartCuckoo},
	{"ext-pipeline", "Extension: pipelined-platform throughput (the paper's future work)", ExtPipeline},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
