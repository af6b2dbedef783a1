package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the hypervisor can take a CPU away for milliseconds
// at a time, and the guest counts that time as stolen in /proc/stat. A
// window of a measured phase during which much time was stolen measures the
// host, not the program, so the end-to-end statistics leave such windows out
// (see quiet).

// stolenJiffies returns the time, in 1/100 s, the hypervisor has taken
// from all of this machine's CPUs, or -1 where the host does not report it.
func stolenJiffies() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// maxStolenShare is the share of a window's CPU time the hypervisor may
// take before the window counts as disturbed.
const maxStolenShare = 0.05

// stealWatch reads the stolen time at every window boundary of a phase.
type stealWatch struct {
	at   []int64
	stop chan struct{}
	done chan struct{}
}

func watchSteal(start time.Time, window time.Duration, windows int) *stealWatch {
	w := &stealWatch{at: make([]int64, windows+1), stop: make(chan struct{}), done: make(chan struct{})}
	w.at[0] = stolenJiffies()
	go func() {
		defer close(w.done)
		for i := 1; i <= windows; i++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(i) * window)))
			select {
			case <-t.C:
				w.at[i] = stolenJiffies()
			case <-w.stop:
				t.Stop()
				return
			}
		}
	}()
	return w
}

// quiet stops the watch and reports, per window, whether the hypervisor
// took at most maxStolenShare of its CPU time. Boundaries the phase ended
// before are read now.
func (w *stealWatch) quiet(window time.Duration, cpus int) []bool {
	close(w.stop)
	<-w.done
	now := stolenJiffies()
	limit := maxStolenShare * window.Seconds() * float64(cpus) * 100
	q := make([]bool, len(w.at)-1)
	for i := range q {
		if w.at[i+1] == 0 {
			w.at[i+1] = now
		}
		q[i] = w.at[0] < 0 || float64(w.at[i+1]-w.at[i]) <= limit
	}
	return q
}
