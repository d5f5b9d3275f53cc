package main

import (
	"fmt"
	"math"
	"time"
)

// Host-speed calibration. On a shared host the speed of a CPU second
// moves by tens of percent from minute to minute (other tenants on the
// same cores and caches, frequency changes), and CPU time does not hide
// that. So an untraced run interleaves two fixed calibration kernels
// with the work it measures and scales each host time by the speed they
// measured next to it: every chunk or slice of an episode by that
// episode's factor, every set-up sample by its own process's. The
// kernels are the benchmark's own code, which no program change can
// move, so the scaled times still move with the program; they read as
// host time on the reference host, where the factor is 1.
//
// One kernel is branchy integer arithmetic in registers, the other
// read-modify-writes the same 10,000 random words of a 4 MiB table on
// every run (640 KiB of cache lines). The factor weighs their speeds
// 3:1: over eight perm1024 runs under induced core and cache
// contention, that halved the unscaled run-to-run range, where the
// arithmetic kernel alone took a quarter off it and the memory kernel
// alone tracked the host worst.
const (
	calibALUIters = 30_000
	calibMemIters = 10_000
	calibMemWords = 1 << 20 // 4 MiB

	// Median kernel times on the reference host (2-vCPU Xeon).
	calibRefALUNS = 220_000
	calibRefMemNS = 60_000

	// calibEvery is the driving-thread CPU time of measured work between
	// calibration samples: a sample takes about a tenth of it.
	calibEvery = 4 * time.Millisecond
)

var (
	calibTable = offHeapWords(calibMemWords) // off the heap the run measures
	calibSink  uint32
)

func calibALU() {
	x := calibSink | 1
	for i := 0; i < calibALUIters; i++ {
		switch {
		case x&1 == 0:
			x = x*1664525 + 1013904223
		case x&2 == 0:
			x = x>>3 ^ x<<5
		default:
			x = (x >> 7) * 2654435761
		}
	}
	calibSink = x
}

func calibMem() {
	x, y := calibSink|1, uint32(12345)
	t := calibTable
	for i := 0; i < calibMemIters; i++ {
		y = y*1664525 + 1013904223
		j := y >> 12
		v := t[j]
		if (v^x)&4 == 0 {
			x += v
		} else {
			x ^= v * 2654435761
		}
		t[j] = v + 1
	}
	calibSink = x
}

// calibrator collects the calibration samples of one stretch of work.
// A nil calibrator (a traced run's) takes no samples and scales by 1.
type calibrator struct {
	alu, mem []float64     // kernel thread CPU times, ns
	spent    time.Duration // thread CPU the kernels took in all
	since    time.Duration // measured work since the last sample
}

// sample runs each kernel once and keeps their thread CPU times. The
// memory kernel runs once untimed first, so the timed pass finds its
// lines wherever the host's caches keep them, not wherever the measured
// work left them: that would make the factor move with the program's
// own footprint.
func (c *calibrator) sample() {
	t0 := threadCPU()
	calibMem()
	t1 := threadCPU()
	calibALU()
	t2 := threadCPU()
	calibMem()
	t3 := threadCPU()
	c.alu = append(c.alu, float64(t2-t1))
	c.mem = append(c.mem, float64(t3-t2))
	c.spent += t3 - t0
}

// after records work of driving-thread CPU time d and samples once
// calibEvery of work has gone by since the last sample.
func (c *calibrator) after(d time.Duration) {
	if c == nil {
		return
	}
	c.since += d
	if c.since >= calibEvery {
		c.since = 0
		c.sample()
	}
}

// factor scales this stretch's host times to the reference host: the
// kernels' reference-to-median time ratios, weighted 3:1 in a geometric
// mean, or 1 with no samples.
func (c *calibrator) factor() float64 {
	if c == nil || len(c.alu) == 0 {
		return 1
	}
	return math.Pow(calibRefALUNS/median(c.alu), 0.75) * math.Pow(calibRefMemNS/median(c.mem), 0.25)
}

// kernelTime is the thread CPU the kernels took, to take out of process
// CPU times that include them.
func (c *calibrator) kernelTime() time.Duration {
	if c == nil {
		return 0
	}
	return c.spent
}

// calibLog gathers the calibration of a run's episodes for its report
// line: each episode's factor and every kernel time.
type calibLog struct {
	factors, alu, mem []float64
}

func (l *calibLog) add(c *calibrator) {
	l.factors = append(l.factors, c.factor())
	if c != nil {
		l.alu = append(l.alu, c.alu...)
		l.mem = append(l.mem, c.mem...)
	}
}

func (l *calibLog) String() string {
	return fmt.Sprintf("calibration factor median %.4f, range %.4f-%.4f; kernel medians %.0f ns arithmetic, %.0f ns memory",
		median(l.factors), quantile(l.factors, 0), quantile(l.factors, 1), median(l.alu), median(l.mem))
}
