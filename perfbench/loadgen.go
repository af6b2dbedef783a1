package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// doFunc executes one op on behalf of worker w and reports whether the
// answer was wrong and whether the op failed (an error, exhausted retries,
// a timeout, a quorum failure or a Failed insert status).
type doFunc func(w int, o op) (wrong, failed bool)

// phaseStats is what one load phase measured. Open-loop latencies run from
// each request's due time; closed-loop latencies from its send time.
type phaseStats struct {
	rate                   float64
	get, put               latencies // reads; writes that store a value
	getSvc                 latencies // reads, send to answer
	lag                    latencies // open loop: dispatch time minus due time
	windowOps              []int64
	window                 time.Duration
	quiet                  []bool // per window: no CPU time stolen (see steal.go)
	backlogMax, backlogEnd int64
	ops, wrong, failed     int64
	elapsed                time.Duration
	chunks                 []chunkStat // closed-loop table runs only
}

func (p *phaseStats) merge(o *phaseStats) {
	p.get.merge(&o.get)
	p.put.merge(&o.put)
	p.getSvc.merge(&o.getSvc)
	p.ops += o.ops
	p.wrong += o.wrong
	p.failed += o.failed
	for i, n := range o.windowOps {
		p.windowOps[i] += n
	}
}

// rates returns the per-window throughputs in ops/s, NaN for empty windows.
func (p *phaseStats) rates() []float64 {
	vals := make([]float64, len(p.windowOps))
	for i, n := range p.windowOps {
		vals[i] = math.NaN()
		if n > 0 {
			vals[i] = float64(n) / p.window.Seconds()
		}
	}
	return vals
}

// opsPerSec is the quiet upper quartile of the per-window throughputs (see
// quietQuartile).
func (p *phaseStats) opsPerSec() float64 { return quietQuartile(p.rates(), p.quiet, 0.75) }

func (p *phaseStats) record(o op, lat, svc int64, win int) {
	switch {
	case o.kind.isRead():
		p.get.add(lat, win)
		p.getSvc.add(svc, win)
	case o.kind == opUpdate || o.kind == opInsert:
		p.put.add(lat, win)
	}
}

func windowOf(t int64, window time.Duration, windows int) int {
	w := int(t / int64(window))
	if w >= windows {
		w = windows - 1
	}
	return w
}

// queueDepth is each open-loop worker's queue capacity: deep enough that a
// stall shows up as backlog and lag rather than as a blocked generator.
const queueDepth = 4096

// openLoop sends gen's ops at the times arr draws for dur, each to the
// worker that owns its key (key index mod workers), so the ops on one key
// run in stream order and the generated expectations hold.
//
// The generator runs on its own locked thread and sleeps in the kernel until
// 50 µs before each due time, then spins. The runtime's timer sleep
// overshoots by up to a millisecond, more than the latency being measured,
// and spinning with runtime.Gosched starved the network poller.
func openLoop(gen *kvGen, arr *arrivals, rate float64, dur time.Duration, workers, windows int, do doFunc) *phaseStats {
	window := dur / time.Duration(windows)
	total := &phaseStats{rate: rate, window: window, windowOps: make([]int64, windows)}
	queues := make([]chan op, workers)
	parts := make([]*phaseStats, workers)
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	steal := watchSteal(start, window, windows)
	for w := range queues {
		queues[w] = make(chan op, queueDepth)
		parts[w] = &phaseStats{windowOps: make([]int64, windows)}
		wg.Add(1)
		go func(w int, q <-chan op, st *phaseStats) {
			defer wg.Done()
			for o := range q {
				sent := int64(time.Since(start))
				wrong, failed := do(w, o)
				end := int64(time.Since(start))
				completed.Add(1)
				win := windowOf(o.due, window, windows)
				st.ops++
				st.windowOps[windowOf(end, window, windows)]++
				if wrong {
					st.wrong++
				}
				if failed {
					st.failed++
					continue
				}
				st.record(o, end-o.due, end-sent, win)
			}
		}(w, queues[w], parts[w])
	}
	var dispatched int64
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		due := arr.next()
		if due >= int64(dur) {
			break
		}
		for {
			d := due - int64(time.Since(start))
			if d <= 0 {
				break
			}
			if d > 60_000 {
				threadSleep(time.Duration(d - 50_000))
			}
		}
		o := gen.next()
		o.due = due
		total.lag.add(int64(time.Since(start))-due, windowOf(due, window, windows))
		queues[int(o.idx)%workers] <- o
		dispatched++
		if b := dispatched - completed.Load(); b > total.backlogMax {
			total.backlogMax = b
		}
	}
	total.backlogEnd = dispatched - completed.Load()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.quiet = steal.quiet(window, runtime.NumCPU())
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// closedLoop runs one closed-loop client per generator for dur: each sends
// its next op when the previous one is answered. Generators must touch
// disjoint keys (see kvGen.split).
func closedLoop(gens []*kvGen, dur time.Duration, windows int, do doFunc) *phaseStats {
	window := dur / time.Duration(windows)
	total := &phaseStats{window: window, windowOps: make([]int64, windows)}
	parts := make([]*phaseStats, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	steal := watchSteal(start, window, windows)
	for w, g := range gens {
		parts[w] = &phaseStats{windowOps: make([]int64, windows)}
		wg.Add(1)
		go func(w int, g *kvGen, st *phaseStats) {
			defer wg.Done()
			for {
				sent := int64(time.Since(start))
				if sent >= int64(dur) {
					return
				}
				o := g.next()
				wrong, failed := do(w, o)
				end := int64(time.Since(start))
				st.ops++
				st.windowOps[windowOf(end, window, windows)]++
				if wrong {
					st.wrong++
				}
				if failed {
					st.failed++
					continue
				}
				st.record(o, end-sent, end-sent, windowOf(sent, window, windows))
			}
		}(w, g, parts[w])
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.quiet = steal.quiet(window, runtime.NumCPU())
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
