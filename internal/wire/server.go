package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/telemetry/trace"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("wire: server closed")

// Config configures a Server. The zero value of every field except Store is
// usable; defaults are applied by NewServer.
type Config struct {
	// Store is the table being served. Required, and must be safe for the
	// server's concurrency: each connection runs its requests on its own
	// goroutine, so unless the server has exactly one client connection the
	// store must be a Sharded table or a single-writer kind behind
	// mccuckoo.Concurrent, whose writes serialize on its write lock.
	Store mccuckoo.BatchStore

	// MaxConns caps simultaneously served connections (default 256). A
	// connection beyond the cap receives one ERR frame and is closed.
	MaxConns int

	// QueueDepth bounds each connection's queue of decoded-but-unexecuted
	// requests (default 128). A request arriving on a full queue is answered
	// with BUSY instead of being buffered — backpressure is explicit and
	// memory per connection stays bounded.
	QueueDepth int

	// MaxPayload bounds a request frame's payload (default
	// DefaultMaxPayload).
	MaxPayload int

	// IdleTimeout closes a connection that sends no frame for this long
	// (default 2m).
	IdleTimeout time.Duration

	// WriteTimeout bounds each response write (default 10s). A client that
	// stops reading is disconnected rather than allowed to pin a writer.
	WriteTimeout time.Duration

	// SubKeepalive is how often an idle op-log subscription sends an empty
	// REPLICATE frame (default 500ms). Keepalives refresh the subscriber's
	// view of the server's high-water sequence number, which is what the
	// replica-lag metric measures against.
	SubKeepalive time.Duration

	// Logf, when non-nil, receives one line per abnormal connection event
	// (protocol errors, panics, write failures).
	Logf func(format string, args ...any)

	// Trace, when non-nil, records server-side spans (request execution
	// with queue wait, table ops with kick counts, replication applies,
	// recovered panics) for requests carrying a sampled trace context —
	// plus slow and panicking requests regardless of context, per the
	// recorder's options. Nil disables tracing at zero cost.
	Trace *trace.Recorder
}

// Server serves the wire protocol over TCP (or any net.Listener). Requests
// on one connection are decoded by a reader goroutine, executed in order by
// a worker goroutine, and written by a writer goroutine, so a client may
// pipeline any number of requests; responses carry the request id and may
// be matched out of order with other connections' work.
//
//mcvet:lifecycle
type Server struct {
	cfg Config

	// rep is non-nil when the served store is a *Replicated; the
	// replication opcodes (VGET, SUBSCRIBE, REPLICATE) require it and are
	// answered with ERR otherwise.
	rep *Replicated

	mu sync.Mutex
	//mcvet:guardedby mu
	listeners map[net.Listener]struct{}
	//mcvet:guardedby mu
	conns map[net.Conn]struct{}
	//mcvet:guardedby mu
	draining bool

	// drain is closed when Shutdown begins; per-connection watchers use it
	// to interrupt blocked reads.
	drain chan struct{}
	wg    sync.WaitGroup

	// Metrics. ops is indexed by request opcode.
	ops       [16]atomic.Int64
	subs      atomic.Int64
	busy      atomic.Int64
	errored   atomic.Int64
	panics    atomic.Int64
	badFrames atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	active    atomic.Int64
}

// NewServer validates cfg, applies defaults, and returns a Server ready for
// Serve.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("wire: Config.Store is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.SubKeepalive <= 0 {
		cfg.SubKeepalive = 500 * time.Millisecond
	}
	rep, _ := cfg.Store.(*Replicated)
	return &Server{
		cfg:       cfg,
		rep:       rep,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drain:     make(chan struct{}),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error: ErrServerClosed after a clean Shutdown, the Accept error
// otherwise. Multiple Serve calls on different listeners are allowed.
func (s *Server) Serve(ln net.Listener) error {
	if !s.addListener(ln) {
		ln.Close()
		return ErrServerClosed
	}
	defer s.removeListener(ln)
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			return err
		}
		s.accepted.Add(1)
		if !s.registerConn(nc) {
			s.rejected.Add(1)
			s.rejectConn(nc)
			continue
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// Shutdown drains the server: listeners stop accepting, every connection's
// in-flight and already-queued requests are executed and their responses
// written, then connections close. If ctx expires first, remaining
// connections are force-closed and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

func (s *Server) addListener(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.listeners[ln] = struct{}{}
	return true
}

func (s *Server) removeListener(ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, ln)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.drain)
	for ln := range s.listeners {
		ln.Close()
	}
}

// registerConn admits nc unless the server is draining or at MaxConns.
func (s *Server) registerConn(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[nc] = struct{}{}
	s.active.Add(1)
	return true
}

func (s *Server) unregisterConn(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.conns[nc]; ok {
		delete(s.conns, nc)
		s.active.Add(-1)
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		nc.Close()
	}
}

// rejectConn answers an over-limit connection with a single ERR frame
// (request id 0 — the client has not spoken yet) and closes it.
//
//mcvet:deadlined
func (s *Server) rejectConn(nc net.Conn) {
	if err := nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err == nil {
		// Without a deadline an unread ERR frame could pin this goroutine;
		// skip the courtesy frame and just close.
		b := respFrame(0, StatusErr, []byte("connection limit reached"))
		nc.Write(b)
	}
	nc.Close()
}

// respFrame encodes one response frame into a fresh buffer.
func respFrame(id uint64, status byte, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, FrameOverhead+len(payload)), Frame{
		Type:    respFlag | status,
		ID:      id,
		Payload: payload,
	})
}

func (s *Server) errFrame(id uint64, msg string) []byte {
	s.errored.Add(1)
	return respFrame(id, StatusErr, []byte(msg))
}

// serveConn owns one connection: it runs the read loop and shepherds the
// worker and writer goroutines. Close cascade: the reader stops and closes
// work; the worker finishes queued requests and closes out; the writer
// flushes and returns; then the connection closes.
//
//mcvet:deadlined
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.unregisterConn(nc)

	work := make(chan connReq, s.cfg.QueueDepth)
	out := make(chan []byte, s.cfg.QueueDepth)
	// Buffer freelists, the zero-copy machinery (DESIGN.md §10): request
	// buffers travel from the reader through work to the worker and come
	// back via freeReq; response buffers travel from the worker through out
	// to the writer and come back via freeResp. Capacities exceed the queue
	// depths so a recycle never blocks; when a freelist is momentarily empty
	// the taker allocates a fresh buffer, which then joins the cycle.
	freeReq := make(chan []byte, s.cfg.QueueDepth+1)
	freeResp := make(chan []byte, 2*s.cfg.QueueDepth+2)
	connDone := make(chan struct{})
	// connFailed is closed by the writer on a write failure, so a
	// subscription pump blocked on an idle op log learns the peer is gone.
	connFailed := make(chan struct{})

	// Drain watcher: a blocked read is interrupted by expiring its
	// deadline, so graceful shutdown does not wait out IdleTimeout.
	go func() {
		select {
		case <-s.drain:
			if err := nc.SetReadDeadline(time.Now()); err != nil {
				// Cannot interrupt the read by deadline; closing the
				// connection interrupts it the hard way.
				nc.Close()
			}
		case <-connDone:
		}
	}()

	var pipe sync.WaitGroup
	pipe.Add(2)
	go func() {
		defer pipe.Done()
		h := &connHandler{srv: s, freeResp: freeResp}
		for req := range work {
			out <- h.handle(req.f)
			// The request buffer is dead once handle returns (responses
			// never alias the request payload); recycle it for the reader.
			if req.buf != nil {
				select {
				case freeReq <- req.buf:
				default:
				}
			}
		}
		close(out)
	}()
	go func() {
		defer pipe.Done()
		failed := false
		for b := range out {
			if failed {
				continue // drain so the worker never blocks forever
			}
			err := nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err == nil {
				_, err = nc.Write(b)
			}
			if err != nil {
				s.logf("wire: %s: write: %v", nc.RemoteAddr(), err)
				failed = true
				close(connFailed)
				nc.Close() // unblock the reader too
				continue
			}
			s.bytesOut.Add(int64(len(b)))
			// A written response buffer goes back to the worker's freelist.
			// Subscription and BUSY frames join the cycle here too; that only
			// seeds the freelist earlier.
			select {
			case freeResp <- b:
			default:
			}
		}
	}()

	s.readLoop(nc, work, out, connFailed, freeReq)
	close(work)
	pipe.Wait()
	nc.Close()
	close(connDone)
}

// readLoop decodes requests and feeds the work queue. When the queue is
// full the request is answered with BUSY immediately — never buffered. A
// SUBSCRIBE request flips the connection into streaming mode: the read
// goroutine stops decoding requests and becomes the op-log pump until the
// connection or the server goes down.
//
//mcvet:deadlined
func (s *Server) readLoop(nc net.Conn, work chan<- connReq, out chan<- []byte, connFailed <-chan struct{}, freeReq <-chan []byte) {
	var buf []byte
	for {
		if err := nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			// A connection that cannot arm its idle deadline is failing;
			// treat it like any other dead connection.
			s.logf("wire: %s: set read deadline: %v", nc.RemoteAddr(), err)
			return
		}
		select {
		case <-s.drain:
			return
		default:
		}
		f, b, err := ReadFrame(nc, s.cfg.MaxPayload, buf)
		buf = b
		if err != nil {
			var ne net.Error
			switch {
			case errors.Is(err, io.EOF):
				// Clean disconnect between frames.
			case errors.As(err, &ne) && ne.Timeout():
				select {
				case <-s.drain:
					// Interrupted by shutdown: graceful exit.
				default:
					s.logf("wire: %s: idle timeout", nc.RemoteAddr())
				}
			default:
				s.badFrames.Add(1)
				s.logf("wire: %s: read: %v", nc.RemoteAddr(), err)
			}
			return
		}
		n := len(f.Payload) + FrameOverhead
		if f.Trace.Valid() {
			// The decoder stripped the trace prefix from the payload; the
			// wire still carried it.
			n += trace.ContextSize
		}
		s.bytesIn.Add(int64(n))
		if s.cfg.Trace.Enabled() {
			// Stamp arrival so the handler can report queue wait.
			f.recvAt = time.Now()
		}
		if f.IsResponse() {
			s.badFrames.Add(1)
			s.logf("wire: %s: received a response frame", nc.RemoteAddr())
			return
		}
		if f.Type == OpSub {
			s.ops[OpSub].Add(1)
			c := cursor{b: f.Payload}
			fromSeq := c.u64()
			if !c.ok() {
				out <- s.errFrame(f.ID, "malformed subscribe payload")
				continue
			}
			if s.rep == nil {
				out <- s.errFrame(f.ID, "store is not replicated")
				continue
			}
			// The read deadline was armed for the next request frame; a
			// subscribed connection sends nothing more, so disarm it. If
			// that fails the deadline would kill the stream spuriously, so
			// refuse the subscription instead.
			if err := nc.SetReadDeadline(time.Time{}); err != nil {
				s.logf("wire: %s: disarm read deadline: %v", nc.RemoteAddr(), err)
				out <- s.errFrame(f.ID, "connection failed")
				return
			}
			s.runSubscription(f.ID, fromSeq, out, connFailed)
			return
		}
		// Zero-copy handoff: the payload aliases buf, so ownership of buf
		// moves to the worker along with the frame and the reader continues
		// with a recycled buffer (or nil, making the next ReadFrame allocate
		// one that then joins the cycle). The old copy-per-request here was
		// the serve path's last steady-state allocation.
		select {
		case work <- connReq{f: f, buf: buf}:
			select {
			case buf = <-freeReq:
			default:
				buf = nil
			}
		default:
			// BUSY: the frame was not queued, so buf stays with the reader.
			s.busy.Add(1)
			out <- respFrame(f.ID, StatusBusy, nil)
		}
	}
}

// streamChunk is how many op-log entries a subscription pump packs into
// one REPLICATE frame (well under MaxEntriesPerFrame).
const streamChunk = 1024

// runSubscription is the op-log pump for one subscribed connection. It runs
// on the connection's read goroutine (which has stopped reading — a
// subscribed client sends nothing more) and pushes REPLICATE frames, each
// echoing the subscribe request id, through the writer: first a full state
// dump when the resume point predates the op log, then retained entries,
// then new entries as they arrive, with keepalives in between. The worker
// goroutine sits idle on an empty queue for the connection's lifetime.
func (s *Server) runSubscription(id uint64, fromSeq uint64, out chan<- []byte, connFailed <-chan struct{}) {
	rep := s.rep
	s.subs.Add(1)
	defer s.subs.Add(-1)
	sub, head, full, dumpKeys := rep.subscribe(fromSeq)
	defer rep.unsubscribe(sub)

	okPayload := appendU8(appendU64(make([]byte, 0, 9), head), boolByte(full))
	if !s.streamSend(out, connFailed, respFrame(id, StatusOK, okPayload)) {
		return
	}
	replicateFrame := func(head uint64, ents []Entry) []byte {
		p := AppendReplicatePayload(make([]byte, 0, replicateHeadLen+len(ents)*entrySize), head, ents)
		return AppendFrame(make([]byte, 0, FrameOverhead+len(p)), Frame{Type: OpReplicate, ID: id, Payload: p})
	}

	scratch := make([]Entry, 0, streamChunk)
	for len(dumpKeys) > 0 {
		n := min(streamChunk, len(dumpKeys))
		ents := rep.dumpEntries(dumpKeys[:n], scratch[:0])
		dumpKeys = dumpKeys[n:]
		if len(ents) == 0 {
			continue
		}
		if !s.streamSend(out, connFailed, replicateFrame(head, ents)) {
			return
		}
	}

	keepalive := time.NewTicker(s.cfg.SubKeepalive)
	defer keepalive.Stop()
	for {
		for {
			ents, head, overrun := rep.pull(sub, scratch[:0])
			if overrun {
				// The cursor fell behind the ring (the subscriber was sent
				// entries slower than new ones arrived for longer than the
				// ring retains). It must resubscribe and take a full dump.
				s.streamSend(out, connFailed, s.errFrame(id, "oplog overrun; resubscribe"))
				return
			}
			if len(ents) == 0 {
				break
			}
			if !s.streamSend(out, connFailed, replicateFrame(head, ents)) {
				return
			}
		}
		select {
		case <-sub.notify:
		case <-keepalive.C:
			if !s.streamSend(out, connFailed, replicateFrame(rep.Applied(), nil)) {
				return
			}
		case <-s.drain:
			return
		case <-connFailed:
			return
		}
	}
}

// streamSend queues one frame for the writer, giving up when the
// connection has failed or the server is draining. The writer drains out
// even after a failure, so the send itself cannot wedge.
func (s *Server) streamSend(out chan<- []byte, connFailed <-chan struct{}, b []byte) bool {
	select {
	case out <- b:
		return true
	case <-connFailed:
		return false
	case <-s.drain:
		return false
	}
}

// connReq is one queued request: the decoded frame plus the read buffer its
// payload aliases. The worker recycles buf to the reader once the request is
// handled.
type connReq struct {
	f   Frame
	buf []byte
}

// connHandler executes one connection's requests. The scratch slices are
// reused across requests and response frames are encoded into freelist
// buffers, so the steady-state serve path does not allocate per call
// (asserted by TestServePathZeroAlloc).
type connHandler struct {
	srv *Server

	// freeResp supplies response buffers; the connection's writer returns
	// each one after the bytes are on the wire. Nil (as in some tests) just
	// means every response allocates.
	freeResp chan []byte

	// pbuf is the response-payload scratch: payloads are built here, then
	// copied into the response frame by AppendFrame, so it is free for the
	// next request as soon as respFrame returns.
	pbuf []byte

	keys     []uint64
	vals     []uint64
	results  []mccuckoo.InsertResult
	founds   []bool
	removed  []bool
	ents     []Entry
	statuses []byte
}

// respFrame encodes one response frame into a freelist buffer when one is
// available, a fresh one otherwise. payload may alias h.pbuf; it is copied.
func (h *connHandler) respFrame(id uint64, status byte, payload []byte) []byte {
	var b []byte
	select {
	case b = <-h.freeResp:
		b = b[:0]
	default:
		b = make([]byte, 0, FrameOverhead+len(payload))
	}
	return AppendFrame(b, Frame{Type: respFlag | status, ID: id, Payload: payload})
}

func (h *connHandler) errFrame(id uint64, msg string) []byte {
	h.srv.errored.Add(1)
	return h.respFrame(id, StatusErr, []byte(msg))
}

// handle executes one request and returns the encoded response frame. A
// panic in the store is isolated to this request: it is answered with ERR,
// counted in mccuckoo_server_panics_total, flight-recorded with the opcode,
// and the connection keeps serving.
func (h *connHandler) handle(f Frame) (resp []byte) {
	s := h.srv
	tr := s.cfg.Trace
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			// Forced span: a panic is recorded even when the request is
			// untraced and the sampler would have skipped it.
			psp := tr.StartForced(f.Trace, trace.KindPanic)
			psp.Op = f.Type
			psp.FinishForced()
			s.logf("wire: panic serving %s request: %v", OpName(f.Type), r)
			resp = h.errFrame(f.ID, fmt.Sprintf("internal error: %v", r))
		}
	}()
	if f.Type >= 1 && f.Type < byte(len(s.ops)) {
		s.ops[f.Type].Add(1)
	}
	sp := tr.Start(f.Trace, trace.KindServerOp)
	sp.Op = f.Type
	if !f.recvAt.IsZero() {
		sp.Wait = time.Since(f.recvAt).Nanoseconds()
	}
	defer sp.Finish()
	store := s.cfg.Store
	c := cursor{b: f.Payload}
	switch f.Type {
	case OpPing:
		if len(f.Payload) != 0 {
			return h.errFrame(f.ID, "malformed ping payload")
		}
		return h.respFrame(f.ID, StatusOK, nil)
	case OpGet:
		k := c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed get payload")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		v, found := store.Lookup(k)
		tsp.Op, tsp.Key = f.Type, hashutil.Mix64(k)
		tsp.Finish()
		p := h.pbuf[:0]
		p = appendU8(p, boolByte(found))
		p = appendU64(p, v)
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpPut:
		k, v := c.u64(), c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed put payload")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		r := store.Insert(k, v)
		tsp.Op, tsp.Key, tsp.Kicks = f.Type, hashutil.Mix64(k), int32(r.Kicks)
		tsp.Finish()
		p := h.pbuf[:0]
		p = appendU8(p, byte(r.Status))
		p = appendU32(p, uint32(r.Kicks))
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpDel:
		k := c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed del payload")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		removed := store.Delete(k)
		tsp.Op, tsp.Key = f.Type, hashutil.Mix64(k)
		tsp.Finish()
		p := appendU8(h.pbuf[:0], boolByte(removed))
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpBatch:
		return h.handleBatch(f)
	case OpVGet:
		k := c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed vget payload")
		}
		if s.rep == nil {
			return h.errFrame(f.ID, "store is not replicated")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		state, v, seq := s.rep.VGet(k)
		tsp.Op, tsp.Key = f.Type, hashutil.Mix64(k)
		tsp.Finish()
		p := h.pbuf[:0]
		p = appendU8(p, state)
		p = appendU64(p, v)
		p = appendU64(p, seq)
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpReplicate:
		_, ents, ok := ParseReplicatePayload(f.Payload, h.ents)
		if !ok {
			return h.errFrame(f.ID, "malformed replicate payload")
		}
		h.ents = ents
		if s.rep == nil {
			return h.errFrame(f.ID, "store is not replicated")
		}
		asp := sp.StartChild(trace.KindReplApply)
		h.statuses = s.rep.ApplyPush(ents, h.statuses)
		asp.Op, asp.Kicks = f.Type, int32(len(ents))
		asp.Finish()
		p := h.pbuf[:0]
		p = appendU32(p, uint32(len(h.statuses)))
		p = append(p, h.statuses...)
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpDigest:
		lo, hi, maxKeys, name, ok := ParseDigestRequest(f.Payload)
		if !ok {
			return h.errFrame(f.ID, "malformed digest payload")
		}
		if s.rep == nil {
			return h.errFrame(f.ID, "store is not replicated")
		}
		digest, count, keys := s.rep.DigestRange(name, lo, hi, maxKeys)
		p := AppendDigestResponse(h.pbuf[:0], digest, count, keys)
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpStats:
		if len(f.Payload) != 0 {
			return h.errFrame(f.ID, "malformed stats payload")
		}
		p, err := json.Marshal(statsOf(store))
		if err != nil {
			return h.errFrame(f.ID, "stats encoding failed: "+err.Error())
		}
		return h.respFrame(f.ID, StatusOK, p)
	default:
		return h.errFrame(f.ID, fmt.Sprintf("unknown opcode %d", f.Type))
	}
}

// handleBatch decodes a BATCH request into the handler's scratch slices,
// runs the matching BatchStore Into method, and encodes the per-item
// results.
func (h *connHandler) handleBatch(f Frame) []byte {
	s := h.srv
	sub, n, records, ok := parseBatchHeader(f.Payload)
	if !ok {
		return h.errFrame(f.ID, "malformed batch payload")
	}
	h.keys = growU64(h.keys, n)
	c := cursor{b: records}
	switch sub {
	case OpGet:
		for i := 0; i < n; i++ {
			h.keys[i] = c.u64()
		}
		h.vals = growU64(h.vals, n)
		h.founds = growBool(h.founds, n)
		s.cfg.Store.LookupBatchInto(h.keys, h.vals, h.founds)
		p := h.pbuf[:0]
		p = appendU8(p, sub)
		p = appendU32(p, uint32(n))
		for i := 0; i < n; i++ {
			p = appendU8(p, boolByte(h.founds[i]))
			p = appendU64(p, h.vals[i])
		}
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpPut:
		h.vals = growU64(h.vals, n)
		for i := 0; i < n; i++ {
			h.keys[i] = c.u64()
			h.vals[i] = c.u64()
		}
		h.results = growResults(h.results, n)
		s.cfg.Store.InsertBatchInto(h.keys, h.vals, h.results)
		p := h.pbuf[:0]
		p = appendU8(p, sub)
		p = appendU32(p, uint32(n))
		for i := 0; i < n; i++ {
			p = appendU8(p, byte(h.results[i].Status))
			p = appendU32(p, uint32(h.results[i].Kicks))
		}
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	case OpDel:
		for i := 0; i < n; i++ {
			h.keys[i] = c.u64()
		}
		h.removed = growBool(h.removed, n)
		s.cfg.Store.DeleteBatchInto(h.keys, h.removed)
		p := h.pbuf[:0]
		p = appendU8(p, sub)
		p = appendU32(p, uint32(n))
		for i := 0; i < n; i++ {
			p = appendU8(p, boolByte(h.removed[i]))
		}
		h.pbuf = p
		return h.respFrame(f.ID, StatusOK, p)
	default:
		return h.errFrame(f.ID, "unknown batch sub-op")
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growResults(s []mccuckoo.InsertResult, n int) []mccuckoo.InsertResult {
	if cap(s) < n {
		return make([]mccuckoo.InsertResult, n)
	}
	return s[:n]
}

// TableStats is the STATS response payload, JSON with the repo's snake_case
// convention. Gauges come from the store's accessors, lifetime counters
// from its Stats.
type TableStats struct {
	Len       int     `json:"len"`
	Capacity  int     `json:"capacity"`
	LoadRatio float64 `json:"load_ratio"`
	StashLen  int     `json:"stash_len"`

	Inserts     int64 `json:"inserts"`
	Updates     int64 `json:"updates"`
	Kicks       int64 `json:"kicks"`
	Stashed     int64 `json:"stashed"`
	Failures    int64 `json:"failures"`
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Deletes     int64 `json:"deletes"`
	StashProbes int64 `json:"stash_probes"`

	// Replica is present when the served store is a *Replicated: the
	// cluster tier's convergence checks read the digest and applied
	// sequence number from here.
	Replica *ReplicaStats `json:"replica,omitempty"`
}

func statsOf(store mccuckoo.Store) TableStats {
	st := store.Stats()
	ts := TableStats{
		Len:       store.Len(),
		Capacity:  store.Capacity(),
		LoadRatio: store.LoadRatio(),
		StashLen:  store.StashLen(),

		Inserts: st.Inserts, Updates: st.Updates, Kicks: st.Kicks,
		Stashed: st.Stashed, Failures: st.Failures, Lookups: st.Lookups,
		Hits: st.Hits, Deletes: st.Deletes, StashProbes: st.StashProbes,
	}
	if r, ok := store.(*Replicated); ok {
		rs := r.ReplicaStats()
		ts.Replica = &rs
	}
	return ts
}

// WritePrometheus writes the server's own metrics in Prometheus text
// exposition, under the mccuckoo_server_ prefix. It complements (and is
// mounted next to) the table telemetry exposition.
func (s *Server) WritePrometheus(w io.Writer) error {
	p := &serverPromWriter{w: w}
	p.header("mccuckoo_server_requests_total", "Requests served, by opcode.", "counter")
	for op := byte(OpGet); op <= OpDigest; op++ {
		p.printf("mccuckoo_server_requests_total{op=%q} %d\n", OpName(op), s.ops[op].Load())
	}
	p.simple("mccuckoo_server_subscriptions_active", "Op-log subscriptions currently streaming.", "gauge", s.subs.Load())
	p.simple("mccuckoo_server_busy_total", "Requests rejected with BUSY backpressure.", "counter", s.busy.Load())
	p.simple("mccuckoo_server_errors_total", "Requests answered with ERR.", "counter", s.errored.Load())
	p.simple("mccuckoo_server_panics_total", "Request handlers recovered from a panic.", "counter", s.panics.Load())
	p.simple("mccuckoo_server_bad_frames_total", "Connections dropped for protocol violations.", "counter", s.badFrames.Load())
	p.simple("mccuckoo_server_connections_accepted_total", "Connections accepted.", "counter", s.accepted.Load())
	p.simple("mccuckoo_server_connections_rejected_total", "Connections rejected at the MaxConns limit.", "counter", s.rejected.Load())
	p.simple("mccuckoo_server_bytes_read_total", "Request bytes received (frame overhead included).", "counter", s.bytesIn.Load())
	p.simple("mccuckoo_server_bytes_written_total", "Response bytes written.", "counter", s.bytesOut.Load())
	p.simple("mccuckoo_server_connections_active", "Connections currently served.", "gauge", s.active.Load())
	return p.err
}

type serverPromWriter struct {
	w   io.Writer
	err error
}

func (p *serverPromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *serverPromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *serverPromWriter) simple(name, help, typ string, v int64) {
	p.header(name, help, typ)
	p.printf("%s %d\n", name, v)
}
