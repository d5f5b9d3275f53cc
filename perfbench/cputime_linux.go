package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has used. The
// benchmark locks its driving goroutine to one thread, so differences
// are the host CPU time of the simulation loop: unlike wall time they
// exclude time the host gave to other tenants.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU returns the CPU time used by the whole process: the
// simulation loop plus the garbage collector's background work and any
// helper goroutines.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// offHeapWords returns n zeroed words mapped outside the Go heap, so
// that they count in no heap figure and do not move the collector's
// pacing. The mapping lives as long as the process.
func offHeapWords(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mmap: " + err.Error())
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}
