package main

import (
	"syscall"
	"time"
)

// threadSleep blocks the calling thread in the kernel for d, which wakes
// within tens of microseconds.
func threadSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
