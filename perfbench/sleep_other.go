//go:build !linux

package main

import "time"

// threadSleep falls back to the runtime's sleep where nanosleep is not
// available; the generator's lag metrics show what that costs.
func threadSleep(d time.Duration) { time.Sleep(d) }
