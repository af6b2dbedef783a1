package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mccuckoo"
	"mccuckoo/internal/cluster"
	"mccuckoo/internal/wire"
)

// served is one running wire.Server on a loopback port.
type served struct {
	addr string
	srv  *wire.Server
	done chan error
}

// serve starts a server for store on a fresh loopback port. With counts
// set, every accepted conn counts its reads, writes and bytes into it.
func serve(store mccuckoo.BatchStore, counts *connCounts) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serveOn(ln, store, counts)
}

func serveOn(ln net.Listener, store mccuckoo.BatchStore, counts *connCounts) (*served, error) {
	srv, err := wire.NewServer(wire.Config{Store: store})
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &served{addr: ln.Addr().String(), srv: srv, done: make(chan error, 1)}
	if counts != nil {
		ln = countedListener{ln, counts}
	}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

// busy reads the server's BUSY rejection counter from its exposition.
func (s *served) busy() int64 {
	var b bytes.Buffer
	if err := s.srv.WritePrometheus(&b); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "mccuckoo_server_busy_total "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// clusterNodes is the replication factor and node count of every cluster
// the benchmark starts; clusterQuorum is its write quorum.
const (
	clusterNodes  = 3
	clusterQuorum = 2
)

// node is one in-process cluster member: a Sharded table (behind a
// storeProbe when traced) inside a wire.Replicated, served by a wire.Server,
// subscribed to its peers' op logs by a cluster.Replicator.
type node struct {
	probe *storeProbe
	rep   *wire.Replicated
	srv   *served
	repl  *cluster.Replicator
}

type clusterFixture struct {
	nodes   []*node
	addrs   []string
	client  *cluster.Client
	counts  *connCounts // client and server conns, when traced
	tracing *tracer
}

// startCluster starts clusterNodes nodes of the given table size and a
// cluster.Client with R = clusterNodes and W = clusterQuorum. A non-nil
// tracer puts a storeProbe under every node and counts every conn.
func startCluster(c *runCtx, buckets int, tr *tracer) (*clusterFixture, error) {
	f := &clusterFixture{tracing: tr}
	if tr != nil {
		f.counts = &connCounts{}
	}
	lns := make([]net.Listener, clusterNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns[:i])
			return nil, err
		}
		lns[i] = ln
		f.addrs = append(f.addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		if err := f.startNode(c, ln, buckets, i); err != nil {
			closeAll(lns[i+1:])
			f.close()
			return nil, err
		}
	}
	wc := wire.ClientConfig{Conns: clientConns()}
	if f.counts != nil {
		wc.Dial = f.counts.dialer()
	}
	var err error
	f.client, err = cluster.New(cluster.Config{
		Nodes: f.addrs, Replicas: clusterNodes, WriteQuorum: clusterQuorum, Seed: c.seed, Wire: wc,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// startNode serves node i on ln; on failure ln is closed.
func (f *clusterFixture) startNode(c *runCtx, ln net.Listener, buckets, i int) error {
	sh, err := mccuckoo.NewSharded(buckets, 8, mccuckoo.WithSeed(c.seed+uint64(i)))
	if err != nil {
		ln.Close()
		return err
	}
	n := &node{}
	var store mccuckoo.BatchStore = sh
	if f.tracing != nil {
		n.probe = newStoreProbe(sh, f.tracing)
		store = n.probe
	}
	if c.wrap != nil {
		store = c.wrap(store)
	}
	n.rep = wire.NewReplicated(store, wire.ReplicaConfig{})
	if n.srv, err = serveOn(ln, n.rep, f.counts); err != nil {
		return err
	}
	f.nodes = append(f.nodes, n)
	n.repl, err = cluster.NewReplicator(n.rep, cluster.ReplicatorConfig{
		Self: f.addrs[i], Nodes: f.addrs, Replicas: clusterNodes, Seed: c.seed,
	})
	if err != nil {
		return err
	}
	n.repl.Start()
	return nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

func (f *clusterFixture) close() {
	if f.client != nil {
		f.client.Close()
	}
	for _, n := range f.nodes {
		if n.repl != nil {
			n.repl.Close()
		}
		n.srv.stop()
	}
}

// maxLag is the largest replica lag any node reports.
func (f *clusterFixture) maxLag() int64 {
	var m int64
	for _, n := range f.nodes {
		if l := n.repl.MaxLag(); l > m {
			m = l
		}
	}
	return m
}

// quiesce waits until every node has applied its peers' op logs.
func (f *clusterFixture) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.maxLag() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas still lag by %d after %v", f.maxLag(), timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func (f *clusterFixture) items() int {
	total := 0
	for _, n := range f.nodes {
		total += n.rep.Len()
	}
	return total
}

func (f *clusterFixture) tableInserts() int64 {
	var total int64
	for _, n := range f.nodes {
		total += n.probe.inserts.Load()
	}
	return total
}

// preload writes keys 0..n-1 at version 0 through the cluster client.
func (f *clusterFixture) preload(ks keyspace, n int) error {
	const batch = 1024
	keys := make([]uint64, 0, batch)
	vals := make([]uint64, 0, batch)
	for i := 0; i < n; i += batch {
		keys, vals = keys[:0], vals[:0]
		for j := i; j < n && j < i+batch; j++ {
			k := ks.key(uint32(j))
			keys = append(keys, k)
			vals = append(vals, ks.value(k, 0))
		}
		if err := f.client.PutBatch(keys, vals); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// clientConns is the connection count of every client: two, the wire
// client's default, and never more than the host has processors.
func clientConns() int { return min(2, runtime.NumCPU()) }
