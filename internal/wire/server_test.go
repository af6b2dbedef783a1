package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mccuckoo"
)

// startServer launches a Server over a fresh loopback listener and returns
// its address plus a shutdown func that asserts a clean drain.
func startServer(t *testing.T, store mccuckoo.BatchStore, mod func(*Config)) (*Server, string, func()) {
	t.Helper()
	cfg := Config{Store: store, Logf: t.Logf}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return srv, ln.Addr().String(), shutdown
}

func dialClient(t *testing.T, addr string, mod func(*ClientConfig)) *Client {
	t.Helper()
	cfg := ClientConfig{Addr: addr}
	if mod != nil {
		mod(&cfg)
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newConcurrentTable(t *testing.T, capacity int) *mccuckoo.Concurrent {
	t.Helper()
	tab, err := mccuckoo.New(capacity, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	return mccuckoo.NewConcurrent(tab)
}

// TestServerBasicOps runs every opcode end to end against a single-writer
// table behind Concurrent — the wrapper and the server in one pass.
func TestServerBasicOps(t *testing.T) {
	_, addr, shutdown := startServer(t, newConcurrentTable(t, 4096), nil)
	defer shutdown()
	c := dialClient(t, addr, nil)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if r, err := c.Put(1, 100); err != nil || r.Status != mccuckoo.Placed {
		t.Fatalf("put: %+v, %v", r, err)
	}
	if r, err := c.Put(1, 101); err != nil || r.Status != mccuckoo.Updated {
		t.Fatalf("re-put: %+v, %v", r, err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 101 {
		t.Fatalf("get: %d, %v, %v", v, ok, err)
	}
	if _, ok, err := c.Get(2); err != nil || ok {
		t.Fatalf("negative get hit: %v", err)
	}
	if removed, err := c.Del(1); err != nil || !removed {
		t.Fatalf("del: %v, %v", removed, err)
	}
	if removed, err := c.Del(1); err != nil || removed {
		t.Fatalf("double del: %v, %v", removed, err)
	}

	// Batches.
	const n = 500
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i+10), uint64(i)*7
	}
	res, err := c.PutBatch(keys, vals)
	if err != nil {
		t.Fatalf("put batch: %v", err)
	}
	for i, r := range res {
		if r.Status == mccuckoo.Failed {
			t.Fatalf("batch put %d failed", i)
		}
	}
	gv, gf, err := c.GetBatch(append(keys, 99999))
	if err != nil {
		t.Fatalf("get batch: %v", err)
	}
	for i := range keys {
		if !gf[i] || gv[i] != vals[i] {
			t.Fatalf("batch get %d: %d,%v want %d,true", i, gv[i], gf[i], vals[i])
		}
	}
	if gf[n] {
		t.Fatal("batch get hit a never-inserted key")
	}
	removed, err := c.DelBatch(keys[:n/2])
	if err != nil {
		t.Fatalf("del batch: %v", err)
	}
	for i, ok := range removed {
		if !ok {
			t.Fatalf("batch del %d reported absent", i)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Len != n/2 || st.Capacity == 0 || st.Inserts == 0 || st.Lookups == 0 || st.Deletes == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// rawConn is a minimal frame-level client for tests that must control
// pipelining and observe responses exactly as sent.
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	buf []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) send(frames ...Frame) {
	r.t.Helper()
	var b []byte
	for _, f := range frames {
		b = AppendFrame(b, f)
	}
	if _, err := r.nc.Write(b); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

func (r *rawConn) recv() Frame {
	r.t.Helper()
	f, buf, err := ReadFrame(r.nc, DefaultMaxPayload, r.buf)
	if err != nil {
		r.t.Fatalf("raw read: %v", err)
	}
	r.buf = buf
	f.Payload = append([]byte(nil), f.Payload...)
	return f
}

// TestServerPipelined is the acceptance load: 4 connections, each with 256
// requests in flight before the first response is read, under -race. Every
// request must be answered exactly once, matched by id, with the correct
// result — zero lost, zero misordered.
func TestServerPipelined(t *testing.T) {
	store, err := mccuckoo.NewSharded(1<<16, 8, mccuckoo.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const preload = 1000
	for i := 0; i < preload; i++ {
		store.Insert(uint64(i), uint64(i)*3+1)
	}
	// QueueDepth must exceed the in-flight depth so that backpressure never
	// converts load into BUSY here; the BUSY path has its own test.
	_, addr, shutdown := startServer(t, store, func(c *Config) { c.QueueDepth = 512 })
	defer shutdown()

	const conns = 4
	const inflight = 256
	var wg sync.WaitGroup
	for cn := 0; cn < conns; cn++ {
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			rc := dialRaw(t, addr)
			// Blast every request before reading anything: even GETs are
			// interleaved with PUTs into a per-connection key range.
			frames := make([]Frame, inflight)
			for i := 0; i < inflight; i++ {
				id := uint64(cn)<<32 | uint64(i)
				if i%2 == 0 {
					frames[i] = Frame{Type: OpGet, ID: id,
						Payload: appendU64(nil, uint64(i%preload))}
				} else {
					p := appendU64(nil, uint64(1_000_000+cn*inflight+i))
					p = appendU64(p, id)
					frames[i] = Frame{Type: OpPut, ID: id, Payload: p}
				}
			}
			rc.send(frames...)

			got := make(map[uint64]Frame, inflight)
			for i := 0; i < inflight; i++ {
				f := rc.recv()
				if _, dup := got[f.ID]; dup {
					t.Errorf("conn %d: duplicate response id %#x", cn, f.ID)
					return
				}
				got[f.ID] = f
			}
			for i := 0; i < inflight; i++ {
				id := uint64(cn)<<32 | uint64(i)
				f, ok := got[id]
				if !ok {
					t.Errorf("conn %d: lost response for id %#x", cn, id)
					return
				}
				if f.Status() != StatusOK {
					t.Errorf("conn %d: id %#x status %d", cn, id, f.Status())
					return
				}
				c := cursor{b: f.Payload}
				if i%2 == 0 {
					found, v := c.u8(), c.u64()
					want := uint64(i%preload)*3 + 1
					if !c.ok() || found != 1 || v != want {
						t.Errorf("conn %d: get %#x = %d,%d want %d,1", cn, id, v, found, want)
						return
					}
				} else {
					status, _ := c.u8(), c.u32()
					if !c.ok() || mccuckoo.Status(status) == mccuckoo.Failed {
						t.Errorf("conn %d: put %#x status %d", cn, id, status)
						return
					}
				}
			}
		}(cn)
	}
	wg.Wait()
}

// gatedStore blocks every Lookup until the gate opens, letting tests hold a
// server worker mid-request deterministically.
type gatedStore struct {
	mccuckoo.BatchStore
	gate chan struct{}
}

func (g *gatedStore) Lookup(key uint64) (uint64, bool) {
	<-g.gate
	return g.BatchStore.Lookup(key)
}

// TestServerBusy fills a tiny work queue behind a blocked worker: the
// overflow must be answered BUSY immediately — not buffered, not deadlocked
// — and the queued requests must still complete once the store unblocks.
func TestServerBusy(t *testing.T) {
	gate := make(chan struct{})
	store := &gatedStore{BatchStore: newConcurrentTable(t, 1024), gate: gate}
	srv, addr, shutdown := startServer(t, store, func(c *Config) { c.QueueDepth = 2 })
	defer shutdown()

	rc := dialRaw(t, addr)
	const n = 32
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = Frame{Type: OpGet, ID: uint64(i + 1), Payload: appendU64(nil, 7)}
	}
	rc.send(frames...)

	// While the gate is closed at most 1 (worker) + QueueDepth (2) requests
	// can be admitted; every other request must come back BUSY.
	busy := 0
	seen := make(map[uint64]bool, n)
	for busy < n-3 {
		f := rc.recv()
		if f.Status() != StatusBusy {
			t.Fatalf("got status %d with gate closed, want BUSY", f.Status())
		}
		if seen[f.ID] {
			t.Fatalf("duplicate BUSY for id %d", f.ID)
		}
		seen[f.ID] = true
		busy++
	}
	close(gate)
	ok := 0
	for len(seen) < n {
		f := rc.recv()
		if seen[f.ID] {
			t.Fatalf("duplicate response for id %d", f.ID)
		}
		seen[f.ID] = true
		switch f.Status() {
		case StatusOK:
			ok++
		case StatusBusy:
			busy++
		default:
			t.Fatalf("status %d for id %d", f.Status(), f.ID)
		}
	}
	if ok < 2 || ok > 3 || busy != n-ok {
		t.Fatalf("ok=%d busy=%d, want 2-3 admitted and the rest BUSY", ok, busy)
	}
	if got := srv.busy.Load(); got != int64(busy) {
		t.Fatalf("server busy counter %d, want %d", got, busy)
	}
}

// TestServerDrain: queued requests survive Shutdown — the drain completes
// them and flushes their responses before the connection closes.
func TestServerDrain(t *testing.T) {
	gate := make(chan struct{})
	store := &gatedStore{BatchStore: newConcurrentTable(t, 1024), gate: gate}
	srv, addr, _ := startServer(t, store, func(c *Config) { c.QueueDepth = 8 })

	tab := store.BatchStore
	tab.Insert(7, 77)

	rc := dialRaw(t, addr)
	rc.send(
		Frame{Type: OpGet, ID: 1, Payload: appendU64(nil, 7)},
		Frame{Type: OpGet, ID: 2, Payload: appendU64(nil, 7)},
		Frame{Type: OpGet, ID: 3, Payload: appendU64(nil, 7)},
	)
	// Wait until the server has read all three frames off the socket, so
	// none can be lost to the drain race between socket and work queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.bytesIn.Load() < 3*(8+FrameOverhead) {
		if time.Now().After(deadline) {
			t.Fatal("server never read the pipelined requests")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to interrupt the reader, then release the
	// store: the three queued lookups must still be answered.
	time.Sleep(20 * time.Millisecond)
	close(gate)

	for i := 0; i < 3; i++ {
		f := rc.recv()
		if f.Status() != StatusOK {
			t.Fatalf("drained response %d: status %d", i, f.Status())
		}
		c := cursor{b: f.Payload}
		found, v := c.u8(), c.u64()
		if !c.ok() || found != 1 || v != 77 {
			t.Fatalf("drained response %d: %d,%d", i, v, found)
		}
	}
	if _, _, err := ReadFrame(rc.nc, DefaultMaxPayload, nil); err == nil {
		t.Fatal("connection still open after drain")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// panicStore panics on one magic key.
type panicStore struct {
	mccuckoo.BatchStore
}

func (p *panicStore) Lookup(key uint64) (uint64, bool) {
	if key == 666 {
		panic("store exploded")
	}
	return p.BatchStore.Lookup(key)
}

// TestServerPanicIsolation: a panicking request is answered ERR and the
// connection keeps serving.
func TestServerPanicIsolation(t *testing.T) {
	store := &panicStore{BatchStore: newConcurrentTable(t, 1024)}
	store.Insert(1, 10)
	srv, addr, shutdown := startServer(t, store, nil)
	defer shutdown()
	c := dialClient(t, addr, nil)

	_, _, err := c.Get(666)
	var se *ServerError
	if !errors.As(err, &se) || !bytes.Contains([]byte(se.Msg), []byte("internal error")) {
		t.Fatalf("panic request: %v, want internal-error ServerError", err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("connection unusable after panic: %d, %v, %v", v, ok, err)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", srv.panics.Load())
	}
}

// TestServerConnLimit: the connection past MaxConns gets one ERR frame and
// is closed; the admitted connection is unaffected.
func TestServerConnLimit(t *testing.T) {
	srv, addr, shutdown := startServer(t, newConcurrentTable(t, 1024), func(c *Config) { c.MaxConns = 1 })
	defer shutdown()
	c := dialClient(t, addr, func(cc *ClientConfig) { cc.Conns = 1 })
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	f, _, err := ReadFrame(nc, DefaultMaxPayload, nil)
	if err != nil {
		t.Fatalf("over-limit conn: %v, want ERR frame", err)
	}
	if f.Status() != StatusErr || f.ID != 0 {
		t.Fatalf("over-limit conn got status %d id %d", f.Status(), f.ID)
	}
	if _, _, err := ReadFrame(nc, DefaultMaxPayload, nil); err == nil {
		t.Fatal("over-limit conn not closed")
	}
	if srv.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", srv.rejected.Load())
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("admitted conn broken by rejection: %v", err)
	}
}

// TestServerMalformedPayload: a structurally valid frame with a bad payload
// gets ERR; the connection survives. A corrupt frame kills the connection.
func TestServerMalformedPayload(t *testing.T) {
	srv, addr, shutdown := startServer(t, newConcurrentTable(t, 1024), nil)
	defer shutdown()

	rc := dialRaw(t, addr)
	rc.send(Frame{Type: OpGet, ID: 1, Payload: []byte{1, 2, 3}}) // not 8 bytes
	if f := rc.recv(); f.Status() != StatusErr {
		t.Fatalf("malformed get: status %d, want ERR", f.Status())
	}
	rc.send(Frame{Type: 42, ID: 2})
	if f := rc.recv(); f.Status() != StatusErr {
		t.Fatalf("unknown opcode: status %d, want ERR", f.Status())
	}
	rc.send(Frame{Type: OpBatch, ID: 3, Payload: appendU32(appendU8(nil, OpGet), 999)})
	if f := rc.recv(); f.Status() != StatusErr {
		t.Fatalf("lying batch count: status %d, want ERR", f.Status())
	}
	// Connection still healthy after three ERRs.
	rc.send(Frame{Type: OpPing, ID: 4})
	if f := rc.recv(); f.Status() != StatusOK || f.ID != 4 {
		t.Fatalf("ping after errors: %+v", f)
	}

	// A frame with a corrupt checksum is a protocol violation: the server
	// must drop the connection.
	bad := AppendFrame(nil, Frame{Type: OpPing, ID: 5})
	bad[len(bad)-1] ^= 0xff
	if _, err := rc.nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(rc.nc, DefaultMaxPayload, nil); err == nil {
		t.Fatal("connection survived a corrupt frame")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.badFrames.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad-frame counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerUnderTrafficWithScrape is the race smoke named in ci.sh: a
// fleet of clients hammers every op while scrapers concurrently read the
// server exposition and the table's own stats.
func TestServerUnderTrafficWithScrape(t *testing.T) {
	tel := mccuckoo.NewTelemetry()
	store, err := mccuckoo.NewSharded(1<<13, 8, mccuckoo.WithSeed(5), mccuckoo.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, shutdown := startServer(t, store, nil)
	defer shutdown()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			// A scrape snapshots live gauges, which walks the table; pace
			// the loop so scrapes overlap traffic without dominating it.
			for {
				select {
				case <-stop:
					return
				case <-time.After(25 * time.Millisecond):
				}
				if err := srv.WritePrometheus(io.Discard); err != nil {
					t.Errorf("server scrape: %v", err)
					return
				}
				if err := tel.WriteMetrics(io.Discard); err != nil {
					t.Errorf("telemetry scrape: %v", err)
					return
				}
				_ = store.Stats()
				_ = store.LoadRatio()
			}
		}()
	}

	const fleet = 8
	c := dialClient(t, addr, func(cc *ClientConfig) { cc.Conns = 4 })
	var wg sync.WaitGroup
	for g := 0; g < fleet; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) << 20
			keys := make([]uint64, 64)
			vals := make([]uint64, 64)
			for i := range keys {
				keys[i], vals[i] = base+uint64(i), uint64(i)
			}
			for round := 0; round < 30; round++ {
				if _, err := c.PutBatch(keys, vals); err != nil {
					t.Errorf("fleet %d: put batch: %v", g, err)
					return
				}
				if _, _, err := c.GetBatch(keys); err != nil {
					t.Errorf("fleet %d: get batch: %v", g, err)
					return
				}
				if _, _, err := c.Get(base); err != nil {
					t.Errorf("fleet %d: get: %v", g, err)
					return
				}
				if _, err := c.Del(base + uint64(round)); err != nil {
					t.Errorf("fleet %d: del: %v", g, err)
					return
				}
				if _, err := c.Stats(); err != nil {
					t.Errorf("fleet %d: stats: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	var buf bytes.Buffer
	if err := srv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mccuckoo_server_requests_total{op=\"batch\"}",
		"mccuckoo_server_connections_active",
		"mccuckoo_server_bytes_read_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %s:\n%s", want, buf.String())
		}
	}
}
