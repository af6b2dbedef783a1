// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the McCuckoo table, the wire server and the replicated cluster
// through their public functions with generated keys, checks every answer,
// and prints its metrics; the last line of standard output is one JSON
// object. See README.md in this directory.
//
//	go run . --workload table-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"mccuckoo"
)

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []string{
	"setup_s", "ops_per_s", "mem_bytes_per_item",
	"get_p50_us", "get_p90_us", "put_p50_us", "put_p90_us",
}

// perLayer are the metrics of a traced run, reported by every workload.
var perLayer = []string{
	"hashutil.indexes_ns",
	"mccuckoo.lookup_ns", "mccuckoo.insert_ns", "mccuckoo.delete_ns", "mccuckoo.update_ns",
	"core.offchip_reads_per_lookup", "core.onchip_reads_per_lookup",
	"core.offchip_reads_per_insert", "core.offchip_writes_per_insert", "core.kicks_per_insert",
	"stash.probes_per_lookup", "stash.len",
	"shard.lookup_ns", "shard.insert_ns",
	"wire.serve_get_ns", "wire.frame_encode_ns", "wire.frame_decode_ns", "wire.outside_store_us",
	"wire.conn_writes_per_op", "wire.conn_reads_per_op", "wire.bytes_per_op", "wire.busy_per_op",
	"cluster.table_writes_per_put", "cluster.repairs_per_get", "cluster.peer_trips_per_op",
	"cluster.degraded_reads", "cluster.replica_lag_max", "cluster.ack_skew_p50_us",
	"cluster.fanout_overhead_us",
	"runtime.allocs_per_op", "runtime.gc_cycles_per_kop",
	"loadgen.lag_p50_us", "loadgen.lag_p99_us", "loadgen.backlog_max",
	"trace.overhead_ratio",
}

type workload struct {
	name string
	why  string
	run  func(c *runCtx) error
}

var workloads = []workload{
	{"table-read", "reads on a table larger than the last-level cache: bucket probes and off-chip reads set the result", runTableRead},
	{"table-churn", "deletes, inserts and lookups on an in-L2 table held at 85% load: kick-outs, counters and the stash", runTableChurn},
	{"wire-kv", "open-loop Zipf GET/PUT/DEL against one wire server: client, server pipeline, codec and syscalls", runWireKV},
	{"cluster-rw", "open-loop 50/50 GET/PUT against a 3-node R=3 W=2 cluster: quorum fan-out, read-repair, op-log replication", runClusterRW},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runCtx carries one run's settings and collects its results.
type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// small shrinks every table and key set, for the benchmark's tests.
	small bool
	// wrap, when set, wraps every store the network workloads serve; the
	// tests inject faults through it.
	wrap     func(mccuckoo.BatchStore) mccuckoo.BatchStore
	spansOut string
	out      io.Writer

	metrics   map[string]metric
	attempted int64
	failed    int64
	wrong     int64
}

func (c *runCtx) set(name string, v float64, unit string) { c.metrics[name] = metric{v, unit} }

func (c *runCtx) printf(format string, args ...any) { fmt.Fprintf(c.out, format+"\n", args...) }

// flag marks the run as not measuring what it claims, without failing it.
func (c *runCtx) flag(format string, args ...any) { c.printf("FLAG "+format, args...) }

// tally adds a phase's ops, failures and wrong answers (wrong values,
// false hits and false misses) to the run's totals.
func (c *runCtx) tally(st *phaseStats) {
	c.attempted += st.ops
	c.failed += st.failed
	c.wrong += st.wrong
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload and returns its result line. A run with a wrong
// answer reports no metrics.
func execute(c *runCtx) (result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == c.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", c.workload)
	}
	c.metrics = map[string]metric{}
	stampEnv(c)
	if err := w.run(c); err != nil {
		return result{}, fmt.Errorf("%s: %w", c.workload, err)
	}
	res := result{Correct: c.wrong == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	if c.attempted > 0 {
		c.printf("metric fail_ratio = %.6f ratio (%d failed of %d attempted)", float64(c.failed)/float64(c.attempted), c.failed, c.attempted)
	}
	if !res.Correct {
		c.printf("WRONG ANSWERS: %d; metrics withheld", c.wrong)
		return res, nil
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	names := make([]string, 0, len(c.metrics))
	for name := range c.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := c.metrics[name]
		c.printf("metric %s = %.6g %s", name, m.Value, m.Unit)
	}
	for _, name := range want {
		m, ok := c.metrics[name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", c.workload, name)
		}
		res.Metrics[name] = m
	}
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: table-read, table-churn, wire-kv or cluster-rw")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		spans   = flag.String("spans", "", "span dump path of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
		list    = flag.Bool("list", false, "list the workloads and exit")
	)
	flag.Parse()
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-12s %s\n", w.name, w.why)
		}
		return
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	c := &runCtx{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, spansOut: *spans, out: os.Stdout}
	if c.spansOut == "" {
		c.spansOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))
	}
	res, err := execute(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// stampEnv records the host the run measured: CPU model, CPU counts, Go
// version and the cache sizes the host reports.
func stampEnv(c *runCtx) {
	c.printf("env workload=%s seed=%d seconds=%g trace=%v", c.workload, c.seed, c.seconds, c.trace)
	c.printf("env cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	l2, llc := cacheSizes()
	c.printf("env l2_bytes=%d llc_bytes=%d", l2, llc)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes returns the per-core L2 and the last-level cache size in bytes
// as cpu0 reports them, 0 where unknown.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	maxLevel := 0
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		var level int
		fmt.Sscan(read("level"), &level)
		size := parseSize(read("size"))
		if level == 2 {
			l2 = size
		}
		if level >= maxLevel {
			maxLevel, llc = level, size
		}
	}
	return l2, llc
}

func parseSize(s string) int64 {
	var n int64
	var unit string
	fmt.Sscanf(s, "%d%s", &n, &unit)
	switch strings.ToUpper(unit) {
	case "K":
		n <<= 10
	case "M":
		n <<= 20
	case "G":
		n <<= 30
	}
	return n
}
