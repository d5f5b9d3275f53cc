//go:build !linux

package main

import "time"

var clockStart = time.Now()

// threadCPU falls back to wall time where the thread CPU clock is not
// wired up.
func threadCPU() time.Duration { return time.Since(clockStart) }

// processCPU falls back to wall time.
func processCPU() time.Duration { return time.Since(clockStart) }

// offHeapWords falls back to the Go heap.
func offHeapWords(n int) []uint32 { return make([]uint32, n) }
