package mccuckoo

import (
	"io"
	"net/http"

	"mccuckoo/internal/kv"
	"mccuckoo/internal/telemetry"
)

// Telemetry is the live observability surface of a table: atomic event
// counters, log2-bucketed histograms for per-op latency, kick-path length,
// and off-chip accesses per operation (lookups split positive/negative), the
// paper's copy-count distribution and stash gauges, and a flight-recorder
// ring of the last N operations. Attach one to a table with WithTelemetry
// and mount Handler on any HTTP server:
//
//	tel := mccuckoo.NewTelemetry()
//	table, _ := mccuckoo.NewSharded(1<<20, 16, mccuckoo.WithTelemetry(tel))
//	http.ListenAndServe(":8080", tel.Handler())
//	// curl localhost:8080/metrics
//
// Recording is lock-free and allocation-free; a table without telemetry pays
// one nil check per operation and allocates nothing (the disabled path is
// gated by benchmark in ci.sh).
//
// A Telemetry observes one table: attaching it to several merges their event
// streams but the gauges report only the last table attached.
type Telemetry struct {
	sink *telemetry.Sink
}

// TelemetryOption configures NewTelemetry.
type TelemetryOption func(*telemetry.Options)

// WithEventBuffer sets the flight-recorder capacity (rounded up to a power
// of two; default 1024).
func WithEventBuffer(n int) TelemetryOption {
	return func(o *telemetry.Options) { o.EventBuffer = n }
}

// NewTelemetry creates an enabled telemetry collector.
func NewTelemetry(opts ...TelemetryOption) *Telemetry {
	var o telemetry.Options
	for _, opt := range opts {
		opt(&o)
	}
	return &Telemetry{sink: telemetry.New(o)}
}

// Handler returns the HTTP scrape surface:
//
//	/metrics                 Prometheus text exposition format
//	/debug/mccuckoo/stats    full JSON snapshot (gauges, counters, histograms)
//	/debug/mccuckoo/events   the flight recorder as a JSON array, oldest first
func (t *Telemetry) Handler() http.Handler { return t.sink.Handler() }

// WriteMetrics writes the Prometheus text exposition to w, for scrapeless
// use (tests, one-shot dumps).
func (t *Telemetry) WriteMetrics(w io.Writer) error { return t.sink.WritePrometheus(w) }

// Publish registers the telemetry snapshot under name in the process-wide
// expvar registry (visible at /debug/vars). Names must be process-unique;
// a duplicate returns an error.
func (t *Telemetry) Publish(name string) error { return t.sink.Publish(name) }

// WithTelemetry attaches tel to the table being built: every operation is
// recorded (counters, histograms, flight recorder) and the table's gauges
// back tel's exporters.
//
// For Sharded tables the gauges are live — every scrape reads the current
// state under the per-shard locks — and so are they for a Table or Blocked
// once wrapped in Concurrent, read under its lock. A bare Table or Blocked
// is a single-writer structure that cannot be read concurrently, so its
// gauges are sampled: the owning goroutine calls SampleTelemetry whenever
// fresh gauge values should be visible to scrapes (histograms and counters
// are always live).
//
// The same option is accepted by the Load functions, where it additionally
// counts *CorruptError rejections in the corrupt-load counter.
func WithTelemetry(tel *Telemetry) Option {
	return func(c *config) error {
		c.tel = tel
		return nil
	}
}

// gaugeReader is the inspection surface of a single-writer table that its
// gauges are read from.
type gaugeReader interface {
	Len() int
	Capacity() int
	LoadRatio() float64
	StashLen() int
	StashFlagDensity() float64
	CopyHistogram() []int
	Stats() Stats
}

// singleGauges assembles a gauge snapshot from a single-writer table's
// inspection surface. Must be called by the owning goroutine, or under
// Concurrent's write lock.
func singleGauges(t gaugeReader) telemetry.Gauges {
	hist := t.CopyHistogram()
	copyHist := make([]int64, len(hist))
	for v, n := range hist {
		copyHist[v] = int64(n)
	}
	st := t.Stats()
	return telemetry.Gauges{
		Items:            t.Len(),
		Capacity:         t.Capacity(),
		LoadRatio:        t.LoadRatio(),
		StashLen:         t.StashLen(),
		StashFlagDensity: t.StashFlagDensity(),
		CopyHist:         copyHist,
		Ops: kv.Stats{
			Inserts: st.Inserts, Updates: st.Updates, Kicks: st.Kicks,
			Stashed: st.Stashed, Failures: st.Failures, Lookups: st.Lookups,
			Hits: st.Hits, Deletes: st.Deletes, StashProbe: st.StashProbes,
			GrowAttempts: st.GrowAttempts, Grows: st.Grows, GrowFailures: st.GrowFailures,
		},
	}
}

// SampleTelemetry pushes the table's current gauge values (load, copy-count
// distribution, stash depth and flag density, lifetime stats) to the
// attached telemetry. Call it from the goroutine that owns the table —
// typically every few thousand operations, and once after a load phase.
// A table wrapped in Concurrent needs no sampling: Concurrent serves its
// gauges live. No-op without attached telemetry.
func (t *single[E]) SampleTelemetry() {
	if t.sink == nil {
		return
	}
	t.sink.StoreGauges(singleGauges(t))
}
