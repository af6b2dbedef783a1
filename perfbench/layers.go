package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo"
)

// The traced run records spans from the benchmark's own code around calls
// into each layer; the program under test is not instrumented. Spans stay in
// memory and are written out when the run ends.

// Span names, one per layer boundary the benchmark times.
const (
	spanTableLookup = iota // mccuckoo.Table.Lookup
	spanTableInsert        // mccuckoo.Table.Insert of a new key
	spanTableUpdate        // mccuckoo.Table.Insert of a present key
	spanTableDelete        // mccuckoo.Table.Delete
	spanShardLookup        // BatchStore.Lookup inside a server
	spanShardInsert        // BatchStore.Insert inside a server
	spanShardDelete        // BatchStore.Delete inside a server
	spanClientGet          // wire.Client / cluster.Client read, sent to answered
	spanClientPut          // wire.Client / cluster.Client write
	spanClientDel          // wire.Client / cluster.Client delete
	spanHashIndexes        // hashutil.Family.Indexes
	spanServeGet           // wire.ServeProbe.Handle of a GET
	spanFrameEncode        // wire.AppendFrame
	spanFrameDecode        // wire.DecodeFrame
	spanDirectVGet         // wire.Client.VGet
	numSpans
)

var spanNames = [numSpans]string{
	"table.lookup", "table.insert", "table.update", "table.delete",
	"shard.lookup", "shard.insert", "shard.delete",
	"client.get", "client.put", "client.del",
	"hashutil.indexes", "wire.serve_get", "wire.frame_encode", "wire.frame_decode",
	"wire.vget",
}

type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    uint64 `json:"key"`
}

// maxKeptSpans caps the spans kept for the dump; durations are kept for
// every span.
const maxKeptSpans = 200_000

// tracer collects spans from any goroutine. A nil *tracer records nothing,
// which is how the untraced run and untraced passes use the same code.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	ids   int64
	kept  []span
	durs  [numSpans][]int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// record stores one finished span.
func (t *tracer) record(name int, start, end int64, key uint64) {
	t.mu.Lock()
	t.ids++
	t.durs[name] = append(t.durs[name], end-start)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{Name: spanNames[name], ID: t.ids, Start: start, End: end, Key: key})
	}
	t.mu.Unlock()
}

// medianNs returns the median duration of the named span, or 0 if none
// was recorded.
func (t *tracer) medianNs(name int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(quantile(sortedCopy(t.durs[name]), 0.5))
}

// reset drops every recorded duration, keeping the dump.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.durs {
		t.durs[i] = t.durs[i][:0]
	}
}

// link sets each span's parent: the client span of the same key whose
// interval contains it. A server cannot see the client's span, so the
// benchmark joins them by key and time after the run. The ops on one key
// run one at a time, so only the key's latest client span to start before
// a span can contain it. spans must be sorted by start.
func link(spans []span) {
	clients := map[uint64][]int{}
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "client.") || s.Name == spanNames[spanDirectVGet] {
			clients[s.Key] = append(clients[s.Key], i)
		}
	}
	for i := range spans {
		cs := clients[spans[i].Key]
		k := sort.Search(len(cs), func(x int) bool { return spans[cs[x]].Start > spans[i].Start }) - 1
		if k >= 0 && cs[k] != i && spans[cs[k]].End >= spans[i].End {
			spans[i].Parent = spans[cs[k]].ID
		}
	}
}

// dump writes the kept spans, linked to their parents, as JSON lines to
// path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	kept := t.kept
	t.mu.Unlock()
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	link(kept)
	enc := json.NewEncoder(w)
	for _, s := range kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeProbe wraps the BatchStore handed to a server. It counts the inserts
// that reach the table and, while its tracer is active, records a span
// around each point operation. Batch operations pass through untouched.
type storeProbe struct {
	mccuckoo.BatchStore
	tr      *tracer
	inserts atomic.Int64
}

func newStoreProbe(inner mccuckoo.BatchStore, tr *tracer) *storeProbe {
	return &storeProbe{BatchStore: inner, tr: tr}
}

func (s *storeProbe) Lookup(key uint64) (uint64, bool) {
	if !s.tr.active() {
		return s.BatchStore.Lookup(key)
	}
	t0 := s.tr.now()
	v, ok := s.BatchStore.Lookup(key)
	s.tr.record(spanShardLookup, t0, s.tr.now(), key)
	return v, ok
}

func (s *storeProbe) Insert(key, value uint64) mccuckoo.InsertResult {
	s.inserts.Add(1)
	if !s.tr.active() {
		return s.BatchStore.Insert(key, value)
	}
	t0 := s.tr.now()
	r := s.BatchStore.Insert(key, value)
	s.tr.record(spanShardInsert, t0, s.tr.now(), key)
	return r
}

func (s *storeProbe) Delete(key uint64) bool {
	if !s.tr.active() {
		return s.BatchStore.Delete(key)
	}
	t0 := s.tr.now()
	ok := s.BatchStore.Delete(key)
	s.tr.record(spanShardDelete, t0, s.tr.now(), key)
	return ok
}

// connCounts totals the Read and Write calls and bytes of every conn
// wrapped with it.
type connCounts struct {
	reads, writes, bytes atomic.Int64
}

type countedConn struct {
	net.Conn
	c *connCounts
}

func (c countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

type countedListener struct {
	net.Listener
	c *connCounts
}

func (l countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{conn, l.c}, nil
}

// dialer returns a ClientConfig.Dial that counts through c.
func (c *connCounts) dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return countedConn{conn, c}, nil
	}
}

func (c *connCounts) snapshot() [3]int64 {
	return [3]int64{c.reads.Load(), c.writes.Load(), c.bytes.Load()}
}
