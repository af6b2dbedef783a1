package perfgate

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureReport builds a synthetic baseline with one series per scale.
func fixtureReport(series ...Series) *Report {
	r := NewReport("fixture", "test")
	r.Series = append(r.Series, series...)
	return r
}

func series(name string, scale int, ns, allocs float64) Series {
	return Series{Name: name, Scale: scale, Ops: 1000, Reps: 3, NsPerOp: ns, AllocsPerOp: allocs}
}

func verdictOf(t *testing.T, vs []SeriesVerdict, name string) SeriesVerdict {
	t.Helper()
	for _, sv := range vs {
		if sv.Name == name {
			return sv
		}
	}
	t.Fatalf("no verdict for series %q", name)
	return SeriesVerdict{}
}

// TestCompareVerdicts exercises every classification on synthetic fixtures:
// within-noise, improved, regressed (the injected >X% regression the ci.sh
// gate must catch), missing series, and new series.
func TestCompareVerdicts(t *testing.T) {
	base := fixtureReport(
		series("t/noise/n=1000", 1000, 100, 0),
		series("t/improved/n=1000", 1000, 100, 0),
		series("t/regressed/n=1000", 1000, 100, 0),
		series("t/missing/n=1000", 1000, 100, 0),
	)
	band := NoiseBand(1000)
	cur := fixtureReport(
		// Inside the band: classified as noise even though slower.
		series("t/noise/n=1000", 1000, 100*(1+band*0.9), 0),
		// Beyond the band downward: improved.
		series("t/improved/n=1000", 1000, 100*(1-band*1.5), 0),
		// The injected regression: slower than baseline by more than the
		// per-scale noise band. This is the case the gate exists for.
		series("t/regressed/n=1000", 1000, 100*(1+band*2), 0),
		// t/missing absent; t/new present only here.
		series("t/new/n=1000", 1000, 50, 0),
	)

	vs, err := Compare(base, cur)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if got := verdictOf(t, vs, "t/noise/n=1000").Verdict; got != VerdictNoise {
		t.Errorf("noise series classified %v", got)
	}
	if got := verdictOf(t, vs, "t/improved/n=1000").Verdict; got != VerdictImproved {
		t.Errorf("improved series classified %v", got)
	}
	sv := verdictOf(t, vs, "t/regressed/n=1000")
	if sv.Verdict != VerdictRegressed {
		t.Errorf("injected regression classified %v, want REGRESSED", sv.Verdict)
	}
	if sv.Delta <= band {
		t.Errorf("regression delta %.2f not beyond band %.2f", sv.Delta, band)
	}
	if got := verdictOf(t, vs, "t/missing/n=1000").Verdict; got != VerdictMissing {
		t.Errorf("missing series classified %v", got)
	}
	if got := verdictOf(t, vs, "t/new/n=1000").Verdict; got != VerdictNew {
		t.Errorf("new series classified %v", got)
	}

	// The gate fails exactly on the regression and the missing series.
	bad := Failing(vs)
	if len(bad) != 2 {
		t.Fatalf("Failing returned %d verdicts, want 2 (regressed + missing): %+v", len(bad), bad)
	}
}

// TestCompareZeroAllocPromise: a series recorded allocation-free fails the
// gate when it starts allocating, regardless of timing noise bands — that
// is how the zero-copy serve path stays zero-copy.
func TestCompareZeroAllocPromise(t *testing.T) {
	base := fixtureReport(series("wire/serve/get", 1000, 200, 0))
	cur := fixtureReport(series("wire/serve/get", 1000, 200, 2)) // same speed, now allocates

	vs, err := Compare(base, cur)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	sv := verdictOf(t, vs, "wire/serve/get")
	if sv.Verdict != VerdictRegressed || !sv.AllocBreak {
		t.Fatalf("alloc break classified %v (AllocBreak=%v), want REGRESSED with AllocBreak", sv.Verdict, sv.AllocBreak)
	}
	if len(Failing(vs)) != 1 {
		t.Fatalf("alloc break did not fail the gate")
	}
}

// TestCompareSchemaVersionMismatch: comparing across schema versions is
// refused with a typed error rather than producing nonsense verdicts.
func TestCompareSchemaVersionMismatch(t *testing.T) {
	base := fixtureReport(series("a", 10, 100, 0))
	base.SchemaVersion = 1
	cur := fixtureReport(series("a", 10, 100, 0))

	_, err := Compare(base, cur)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Compare returned %v, want *VersionError", err)
	}
	if ve.BaselineVersion != 1 || ve.CurrentVersion != SchemaVersion {
		t.Fatalf("VersionError carries %d/%d, want 1/%d", ve.BaselineVersion, ve.CurrentVersion, SchemaVersion)
	}
}

// TestNoiseBandMonotonic: smaller scales never get a tighter band than
// larger ones (small reps are noisier, not less noisy).
func TestNoiseBandMonotonic(t *testing.T) {
	scales := []int{1, 10, 100, 1000, 10000, 1 << 20}
	for i := 1; i < len(scales); i++ {
		if NoiseBand(scales[i]) > NoiseBand(scales[i-1]) {
			t.Errorf("NoiseBand(%d)=%.2f exceeds NoiseBand(%d)=%.2f",
				scales[i], NoiseBand(scales[i]), scales[i-1], NoiseBand(scales[i-1]))
		}
	}
}

// TestReportRoundTripAndLegacyLoad covers the loader: a v2 report survives
// a write/load round trip, and a legacy (pre-schema) BENCH file loads with
// a *LegacyError warning instead of failing outright.
func TestReportRoundTripAndLegacyLoad(t *testing.T) {
	dir := t.TempDir()

	r := fixtureReport(series("b", 100, 123.4, 1.5), series("a", 10, 45.6, 0))
	path := filepath.Join(dir, "bench.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Series) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// WriteFile sorts by name so committed baselines diff cleanly.
	if got.Series[0].Name != "a" || got.Series[1].Name != "b" {
		t.Fatalf("series not sorted: %+v", got.Series)
	}
	if got.Environment.CPUs < 1 || got.Environment.GOMAXPROCS < 1 {
		t.Fatalf("environment block not captured: %+v", got.Environment)
	}

	legacyPath := filepath.Join(dir, "legacy.json")
	legacy := `{"benchmark": "old-style", "recorded": "2026-08-05", "command": "go run ...", "results": {"x": 1}}`
	if err := os.WriteFile(legacyPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	lr, err := Load(legacyPath)
	var le *LegacyError
	if !errors.As(err, &le) {
		t.Fatalf("legacy load returned %v, want *LegacyError", err)
	}
	if lr == nil || lr.SchemaVersion != 1 || lr.Benchmark != "old-style" {
		t.Fatalf("legacy envelope not recovered: %+v", lr)
	}
}

// TestEnvironmentTHP: the THP mode is the bracketed word of the kernel
// setting, and a BENCH file recorded before the field existed loads with it
// empty and writes back without it.
func TestEnvironmentTHP(t *testing.T) {
	for in, want := range map[string]string{
		"always [madvise] never\n": "madvise",
		"[always] madvise never":   "always",
		"always madvise [never]":   "never",
		"always madvise never":     "",
		"[always":                  "",
		"":                         "",
	} {
		if got := bracketed(in); got != want {
			t.Errorf("bracketed(%q) = %q, want %q", in, got, want)
		}
	}

	dir := t.TempDir()
	old := `{"schema_version": 2, "benchmark": "core", "recorded": "2026-08-08",
"command": "go run ./cmd/mcperf record -suite core",
"environment": {"go": "go1.24.0", "os": "linux", "arch": "amd64", "cpus": 1, "gomaxprocs": 1},
"series": [{"name": "a", "scale": 10, "ops": 1000, "reps": 3, "ns_per_op": 45.6, "allocs_per_op": 0}]}`
	path := filepath.Join(dir, "old.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if r.Environment.THP != "" || r.Environment.GOMAXPROCS != 1 || len(r.Series) != 1 {
		t.Fatalf("old file loaded wrongly: %+v", r)
	}
	again := filepath.Join(dir, "again.json")
	if err := r.WriteFile(again); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"thp"`) {
		t.Fatalf("empty THP mode was written:\n%s", b)
	}
	r2, err := Load(again)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if r2.Environment != r.Environment {
		t.Fatalf("environment changed in the round trip: %+v, want %+v", r2.Environment, r.Environment)
	}
}

// TestSuitesSmoke runs both suites at a tiny scale: series are produced,
// deterministic in set, and the wire serve series honor the zero-alloc
// promise the baseline records.
func TestSuitesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke is seconds-long; skipped in -short")
	}
	o := SuiteOptions{Scales: []int{10, 100}, Ops: 2000, Reps: 2, WireOps: 50, Seed: 1}

	core, err := CoreSuite(o)
	if err != nil {
		t.Fatalf("CoreSuite: %v", err)
	}
	if len(core.Series) != 2*4*2+2 {
		t.Fatalf("core suite produced %d series", len(core.Series))
	}
	for _, s := range core.Series {
		if s.NsPerOp <= 0 {
			t.Errorf("series %s has non-positive ns/op %f", s.Name, s.NsPerOp)
		}
	}

	wire, err := WireSuite(o)
	if err != nil {
		t.Fatalf("WireSuite: %v", err)
	}
	for _, name := range []string{"wire/serve/get", "wire/serve/put_update", "wire/serve/del_miss"} {
		s, ok := wire.Find(name)
		if !ok {
			t.Fatalf("wire suite missing series %s", name)
		}
		if s.AllocsPerOp != 0 {
			t.Errorf("%s allocates %.3f/op; the zero-copy serve path must be allocation-free", name, s.AllocsPerOp)
		}
	}

	// A suite compared against itself is never failing: verdicts are all
	// noise/improved (identical numbers → delta 0).
	vs, err := Compare(core, core)
	if err != nil {
		t.Fatalf("self-compare: %v", err)
	}
	if bad := Failing(vs); len(bad) != 0 {
		t.Fatalf("self-compare failed the gate: %+v", bad)
	}
}
