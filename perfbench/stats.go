package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// quantile returns the q-quantile (0 < q < 1) of sorted by the nearest-rank
// rule, or 0 for an empty slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail names the highest of p99, p99.9 and p99.99 that still has at least
// ten samples beyond it, with that percentile's value in microseconds.
func tail(sorted []int64) string {
	best, label := 0.99, "p99"
	for _, c := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.9999, "p99.99"}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			best, label = c.q, c.label
		}
	}
	return fmt.Sprintf("%s=%.1fus (n=%d)", label, us(quantile(sorted, best)), len(sorted))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// latencies collects per-request latency samples of one kind, each tagged
// with the window of the phase it fell in.
type latencies struct {
	ns     []int64
	window []uint8
}

func (l *latencies) add(ns int64, window int) {
	l.ns = append(l.ns, ns)
	l.window = append(l.window, uint8(window))
}

func (l *latencies) merge(o *latencies) {
	l.ns = append(l.ns, o.ns...)
	l.window = append(l.window, o.window...)
}

// windowed returns the q-quantile, in microseconds, of each of the first
// windows windows; NaN where a window holds fewer than minSamples samples.
func (l *latencies) windowed(q float64, windows, minSamples int) []float64 {
	per := make([][]int64, windows)
	for i, ns := range l.ns {
		if w := int(l.window[i]); w < windows {
			per[w] = append(per[w], ns)
		}
	}
	vals := make([]float64, windows)
	for i, xs := range per {
		vals[i] = math.NaN()
		if len(xs) >= minSamples {
			vals[i] = us(quantile(sortedCopy(xs), q))
		}
	}
	return vals
}

// Interference only ever slows a window down, so a network workload's
// end-to-end figures are quartiles over windows on the quiet side: the
// lower quartile of the per-window latency percentiles and the upper
// quartile of the per-window throughputs. Windows in which the hypervisor
// stole CPU time are left out (see steal.go) unless fewer than a quarter of
// the windows were spared.
// What remains follows the program's own speed through interference that
// covers up to three quarters of the windows, where a median over all
// windows would follow the interference. The table workloads take theirs
// over their fastest chunks instead (see fastShare).

// quietQuartile returns the q-quantile of the defined values of vals,
// restricted to the windows quiet marks when enough of them are left.
func quietQuartile(vals []float64, quiet []bool, q float64) float64 {
	var all, calm []float64
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		all = append(all, v)
		if quiet[i] {
			calm = append(calm, v)
		}
	}
	if 4*len(calm) >= len(all) {
		all = calm
	}
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	return all[int(q*float64(len(all)-1)+0.5)]
}

// widen merges every k adjacent windows of quiet into one, quiet only if
// all k were.
func widen(quiet []bool, k int) []bool {
	out := make([]bool, len(quiet)/k)
	for i := range out {
		out[i] = true
		for _, q := range quiet[i*k : (i+1)*k] {
			out[i] = out[i] && q
		}
	}
	return out
}

// setLatencies reports the quiet lower quartile of each percentile over
// windows; putQuiet marks put's (possibly wider) windows. The p90s are
// end-to-end metrics. The p99s are printed but not gated: on a shared host
// one stall more or less moves them by more than any bound a regression
// gate could hold.
func setLatencies(c *runCtx, get, put *latencies, getQuiet, putQuiet []bool) {
	for _, m := range []struct {
		name  string
		l     *latencies
		q     float64
		quiet []bool
	}{
		{"get_p50_us", get, 0.5, getQuiet}, {"get_p90_us", get, 0.9, getQuiet},
		{"put_p50_us", put, 0.5, putQuiet}, {"put_p90_us", put, 0.9, putQuiet},
		{"get_p99_us", get, 0.99, getQuiet}, {"put_p99_us", put, 0.99, putQuiet},
	} {
		w := m.l.windowed(m.q, len(m.quiet), 100)
		v := quietQuartile(w, m.quiet, 0.25)
		if strings.HasSuffix(m.name, "p99_us") {
			c.printf("metric %s = %.6g us (not gated)", m.name, v)
			continue
		}
		c.set(m.name, v, "us")
		c.printf("windows %s %.4g", m.name, w)
	}
}

// reportSteal prints how many of a phase's windows lost CPU time to the
// hypervisor, and flags the phase when too few were spared to leave them out.
func reportSteal(c *runCtx, phase string, quiet []bool) {
	n := 0
	for _, q := range quiet {
		if q {
			n++
		}
	}
	c.printf("steal %s: %d of %d windows quiet", phase, n, len(quiet))
	if 4*n < len(quiet) {
		c.flag("steal: the hypervisor took CPU time in most windows of %s; its statistics include them", phase)
	}
}
