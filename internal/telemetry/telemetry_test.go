package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mccuckoo/internal/kv"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, // zeros and clamped negatives
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1 << 20, 21},
		{1<<62 - 1, histBuckets - 1}, // saturates into the +Inf bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count %d, want %d", s.Count, len(cases))
	}
	if s.Buckets[0] != 2 || s.Buckets[2] != 2 || s.Buckets[3] != 2 {
		t.Fatalf("bucket counts off: %v", s.Buckets[:8])
	}
	if got := s.UpperBound(0); got != 0 {
		t.Errorf("UpperBound(0) = %d, want 0", got)
	}
	if got := s.UpperBound(3); got != 7 {
		t.Errorf("UpperBound(3) = %d, want 7", got)
	}
	if got := s.UpperBound(histBuckets - 1); got != -1 {
		t.Errorf("UpperBound(last) = %d, want -1 (+Inf)", got)
	}
	if (HistSnapshot{}).Mean() != 0 {
		t.Error("empty Mean not 0")
	}
	var m Hist
	m.Observe(10)
	m.Observe(20)
	if got := m.Snapshot().Mean(); got != 15 {
		t.Errorf("Mean = %v, want 15", got)
	}
}

func TestEventPackRoundTrip(t *testing.T) {
	cases := []Event{
		{},
		{Op: OpInsert, Status: uint8(kv.Stashed), Shard: -1, Kicks: 500},
		{Op: OpLookup, Hit: true, Shard: 65535},
		{Op: OpDelete, Hit: true, Shard: 0, Kicks: 1<<31 - 1},
		{Op: OpInsert, Status: uint8(kv.Failed), Shard: 12345},
	}
	for _, e := range cases {
		got := unpackEvent(e.KeyHash, e.Nanos, e.OffChip, packEvent(e))
		if got != e {
			t.Errorf("round trip %+v -> %+v", e, got)
		}
	}
}

func TestRingWrapOldestFirst(t *testing.T) {
	r := newRing(10)
	if r.Cap() != 16 {
		t.Fatalf("cap %d, want 16 (rounded up)", r.Cap())
	}
	for i := 0; i < 40; i++ {
		r.add(Event{Op: OpLookup, KeyHash: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("got %d events, want 16", len(evs))
	}
	for i, e := range evs {
		if want := uint64(40 - 16 + i); e.KeyHash != want {
			t.Fatalf("event %d has KeyHash %d, want %d (oldest first)", i, e.KeyHash, want)
		}
	}
}

func TestSinkRecordAndSnapshot(t *testing.T) {
	s := New(Options{EventBuffer: 16})
	s.Record(Event{Op: OpInsert, Status: uint8(kv.Placed), Kicks: 3, OffChip: 5, Nanos: 100, Shard: -1})
	s.Record(Event{Op: OpInsert, Status: uint8(kv.Stashed), OffChip: 9, Nanos: 50, Shard: 2})
	s.Record(Event{Op: OpLookup, Hit: true, OffChip: 1, Nanos: 10})
	s.Record(Event{Op: OpLookup, Hit: false, OffChip: 3})
	s.Record(Event{Op: OpDelete, Hit: true, OffChip: 0, Nanos: 5})
	s.RecordCorruptLoad()
	s.RecordRepair(kv.RepairReport{CountersFixed: 2, SizeBefore: 4, SizeAfter: 4, CopiesBefore: 6, CopiesAfter: 6})
	s.RecordRepair(kv.RepairReport{})

	snap := s.Snapshot()
	c := snap.Counters
	if c.Inserts != 2 || c.Lookups != 2 || c.Deletes != 1 {
		t.Fatalf("op counts: %+v", c)
	}
	if c.InsertStatus["placed"] != 1 || c.InsertStatus["stashed"] != 1 {
		t.Fatalf("insert status: %v", c.InsertStatus)
	}
	if c.LookupHits != 1 || c.LookupMisses != 1 || c.DeletesHit != 1 {
		t.Fatalf("hit counts: %+v", c)
	}
	if c.CorruptLoads != 1 {
		t.Fatalf("corrupt loads %d", c.CorruptLoads)
	}
	if c.Repairs != 2 || c.RepairsDirty != 1 || c.RepairFixed["counters"] != 2 {
		t.Fatalf("repairs: %+v", c)
	}
	if got := snap.Histograms["kick_path_length"].Count; got != 2 {
		t.Fatalf("kick hist count %d", got)
	}
	if got := snap.Histograms["offchip_lookup_pos"].Sum; got != 1 {
		t.Fatalf("positive lookup off-chip sum %d", got)
	}
	if got := snap.Histograms["offchip_lookup_neg"].Sum; got != 3 {
		t.Fatalf("negative lookup off-chip sum %d", got)
	}
	// The untimed lookup (Nanos == 0) must not pollute the latency histogram.
	if got := snap.Histograms["latency_lookup_ns"].Count; got != 1 {
		t.Fatalf("lookup latency count %d, want 1 (untimed op excluded)", got)
	}
	if evs := s.Events(); len(evs) != 5 {
		t.Fatalf("flight recorder holds %d events, want 5", len(evs))
	}
}

func TestNilSinkIsSafeAndDisabled(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	s.Record(Event{Op: OpInsert})
	s.RecordCorruptLoad()
	s.RecordRepair(kv.RepairReport{CountersFixed: 1})
	s.SetGaugeSource(func() Gauges { return Gauges{} })
	s.StoreGauges(Gauges{Items: 1})
	if evs := s.Events(); evs != nil {
		t.Fatalf("nil sink events: %v", evs)
	}
	if snap := s.Snapshot(); snap.Counters.Inserts != 0 {
		t.Fatalf("nil sink snapshot: %+v", snap)
	}
}

func TestGaugeSourceOverridesPush(t *testing.T) {
	s := New(Options{})
	s.StoreGauges(Gauges{Items: 7})
	if got := s.Snapshot().Gauges.Items; got != 7 {
		t.Fatalf("pushed gauges not served: %d", got)
	}
	s.SetGaugeSource(func() Gauges { return Gauges{Items: 42} })
	if got := s.Snapshot().Gauges.Items; got != 42 {
		t.Fatalf("live source not preferred: %d", got)
	}
	s.SetGaugeSource(nil)
	if got := s.Snapshot().Gauges.Items; got != 7 {
		t.Fatalf("reverting to pushed gauges failed: %d", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	s := New(Options{})
	s.Record(Event{Op: OpInsert, Status: uint8(kv.Placed), Kicks: 2, OffChip: 4, Nanos: 1500})
	s.Record(Event{Op: OpLookup, Hit: true, OffChip: 1, Nanos: 300})
	s.Record(Event{Op: OpLookup, Hit: false, OffChip: 3, Nanos: 200})
	s.Record(Event{Op: OpDelete, Hit: true, Nanos: 100})
	s.RecordCorruptLoad()
	s.StoreGauges(Gauges{
		Items: 10, Capacity: 100, LoadRatio: 0.1, StashLen: 2, StashFlagDensity: 0.03,
		CopyHist: []int64{0, 6, 3, 1},
		Shards:   4, MinShardLoad: 0.05, MaxShardLoad: 0.2,
		Ops: kv.Stats{GrowAttempts: 3, Grows: 2, GrowFailures: 1, Kicks: 2, StashProbe: 5},
	})

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`mccuckoo_ops_total{op="insert"} 1`,
		`mccuckoo_ops_total{op="lookup"} 2`,
		`mccuckoo_inserts_total{status="placed"} 1`,
		`mccuckoo_lookups_total{result="hit"} 1`,
		`mccuckoo_lookups_total{result="miss"} 1`,
		`mccuckoo_deletes_removed_total 1`,
		`mccuckoo_corrupt_loads_total 1`,
		`mccuckoo_autogrow_attempts_total 3`,
		`mccuckoo_autogrow_success_total 2`,
		`mccuckoo_autogrow_failures_total 1`,
		`mccuckoo_stash_probes_total 5`,
		`mccuckoo_table_kicks_total 2`,
		`mccuckoo_op_latency_seconds_bucket{op="insert",`,
		`mccuckoo_op_latency_seconds_count{op="lookup"} 2`,
		`mccuckoo_kick_path_length_bucket{le="3"} 1`,
		`mccuckoo_kick_path_length_sum 2`,
		`mccuckoo_offchip_accesses_per_insert_count 1`,
		`mccuckoo_offchip_accesses_per_lookup_count{result="positive"} 1`,
		`mccuckoo_offchip_accesses_per_lookup_count{result="negative"} 1`,
		`mccuckoo_items 10`,
		`mccuckoo_capacity 100`,
		`mccuckoo_load_ratio 0.1`,
		`mccuckoo_stash_len 2`,
		`mccuckoo_stash_flag_density 0.03`,
		`mccuckoo_copy_count_items{copies="1"} 6`,
		`mccuckoo_copy_count_items{copies="3"} 1`,
		`mccuckoo_copy_bucket_fraction{copies="1"}`,
		`mccuckoo_shards 4`,
		`mccuckoo_shard_load_min 0.05`,
		`mccuckoo_shard_load_max 0.2`,
		`mccuckoo_uptime_seconds`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("exposition does not end with a newline")
	}
	// Cumulative bucket sanity: the +Inf bucket of every histogram must equal
	// its _count.
	if !strings.Contains(out, `mccuckoo_kick_path_length_bucket{le="+Inf"} 1`) {
		t.Error("+Inf bucket missing or not cumulative")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	s := New(Options{EventBuffer: 16})
	s.Record(Event{Op: OpInsert, Status: uint8(kv.Placed), Kicks: 1, OffChip: 2, Nanos: 10, Shard: 3, KeyHash: 0xdead})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "mccuckoo_ops_total") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	code, body, _ = get("/debug/mccuckoo/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	for _, key := range []string{"uptime_seconds", "gauges", "counters", "histograms"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/stats missing %q", key)
		}
	}

	code, body, _ = get("/debug/mccuckoo/events")
	if code != http.StatusOK {
		t.Fatalf("/events status %d", code)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	if len(evs) != 1 {
		t.Fatalf("/events has %d events, want 1", len(evs))
	}
	if evs[0]["op"] != "insert" || evs[0]["status"] != "placed" || evs[0]["shard"] != float64(3) {
		t.Fatalf("/events payload: %+v", evs[0])
	}

	if code, _, _ = get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
}

func TestPublishDedup(t *testing.T) {
	s := New(Options{})
	const name = "mccuckoo_test_publish_dedup"
	if err := s.Publish(name); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	if err := s.Publish(name); err == nil {
		t.Fatal("duplicate publish accepted")
	}
}
