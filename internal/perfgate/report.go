// Package perfgate is the performance-regression gate: a scale-graded,
// seeded benchmark suite over the public table kinds and the wire serve
// path, a versioned on-disk result schema (the BENCH_*.json files at the
// repo root), and a comparator that classifies each series against a stored
// baseline as improved, noise, or regressed within a per-scale noise band.
// ci.sh runs the suite at reduced scale on every verification pass and fails
// on a regression beyond the band; DESIGN.md §14 documents the baseline
// protocol (when to refresh, how the bands were set, what the machine block
// means).
package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// SchemaVersion is the current BENCH file schema. Version 1 retroactively
// names the ad-hoc pre-gate shapes of BENCH_shard.json and BENCH_trace.json;
// version 2 is the first comparator-parseable schema.
const SchemaVersion = 2

// Report is one BENCH_*.json artifact: a set of measured series plus enough
// environment to judge whether a comparison across files is meaningful.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Benchmark names the suite ("core", "wire", ...).
	Benchmark string `json:"benchmark"`
	// Recorded is the RFC 3339 date the baseline was captured.
	Recorded string `json:"recorded"`
	// Command reproduces the file.
	Command     string      `json:"command"`
	Environment Environment `json:"environment"`
	Series      []Series    `json:"series"`
	Notes       []string    `json:"notes,omitempty"`
}

// Environment is the machine block. BENCH_shard.json's 1-CPU caveat used to
// live in a free-text note; CPUs and GOMAXPROCS make it structural.
type Environment struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu,omitempty"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// THP is the host's transparent-huge-page mode (always, madvise or
	// never; empty where the kernel has none). Large tables are advised
	// for huge pages, so their timings depend on it.
	THP string `json:"thp,omitempty"`
}

// Series is one measured configuration. NsPerOp and AllocsPerOp are the
// best (minimum-time) rep's numbers: on shared CI machines the minimum over
// fixed-iteration reps estimates the uncontended cost far more stably than
// the mean (DESIGN.md §14).
type Series struct {
	Name string `json:"name"`
	// Scale is the resident key count, which selects the comparator's
	// noise band.
	Scale int `json:"scale"`
	// Ops is the iteration count of each rep; Reps how many reps ran.
	Ops  int64 `json:"ops"`
	Reps int   `json:"reps"`
	// NsPerOp is wall time per operation of the best rep.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation of the best rep. A
	// baseline of 0 is a hard promise: the comparator fails any run where
	// a zero-alloc series starts allocating, noise band or not.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// CurrentEnvironment captures the running machine's environment block.
func CurrentEnvironment() Environment {
	return Environment{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPU:        cpuModel(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		THP:        thpMode(),
	}
}

// thpMode best-effort reads the bracketed (active) word of the kernel's
// transparent-huge-page setting, "always [madvise] never" → "madvise";
// empty when the setting is absent.
func thpMode() string {
	b, _ := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled") // absent reads as empty: no bracket, no mode
	return bracketed(string(b))
}

// bracketed returns the word between the first "[" and the next "]" in s,
// or "" if there is none.
func bracketed(s string) string {
	_, rest, ok := strings.Cut(s, "[")
	if !ok {
		return ""
	}
	word, _, ok := strings.Cut(rest, "]")
	if !ok {
		return ""
	}
	return word
}

// cpuModel best-effort reads the CPU model name (linux only; empty
// elsewhere — the field is omitempty for that reason).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// Find returns the named series.
func (r *Report) Find(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Sort orders the series by name, so recorded files diff cleanly.
func (r *Report) Sort() {
	sort.Slice(r.Series, func(i, j int) bool { return r.Series[i].Name < r.Series[j].Name })
}

// NewReport stamps a report skeleton for the named suite.
func NewReport(benchmark, command string) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Benchmark:     benchmark,
		Recorded:      time.Now().UTC().Format("2006-01-02"),
		Command:       command,
		Environment:   CurrentEnvironment(),
	}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	r.Sort()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LegacyError marks a BENCH file that predates the versioned schema (no
// schema_version field). Load still returns the envelope fields it could
// recover; callers surface the error as a warning and skip comparison.
type LegacyError struct {
	Path string
}

func (e *LegacyError) Error() string {
	return fmt.Sprintf("perfgate: %s has no schema_version (legacy pre-gate BENCH file); re-record it with cmd/mcperf to make it comparator-parseable", e.Path)
}

// Load reads a BENCH report. A legacy file (one written before the schema
// existed) yields a best-effort Report with SchemaVersion 1 and a
// *LegacyError the caller should treat as a warning, not a failure.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		SchemaVersion int    `json:"schema_version"`
		Benchmark     string `json:"benchmark"`
		Recorded      string `json:"recorded"`
		Command       string `json:"command"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("perfgate: %s: %w", path, err)
	}
	if probe.SchemaVersion == 0 {
		return &Report{
			SchemaVersion: 1,
			Benchmark:     probe.Benchmark,
			Recorded:      probe.Recorded,
			Command:       probe.Command,
		}, &LegacyError{Path: path}
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perfgate: %s: %w", path, err)
	}
	return &r, nil
}
