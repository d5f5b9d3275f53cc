package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// setupReps is how many times a run measures its workload's set-up.
const setupReps = 9

// setupSamples measures a workload's set-up time setupReps times, each
// in a fresh process, so every sample pays the one-time costs a user
// pays (shared configuration indexes, first-touch allocation) and the
// median is over independent cold starts.
func setupSamples(wl string, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "--setup-child", wl, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// setupSampleCalibrations is how many calibration samples a set-up
// process takes after its build.
const setupSampleCalibrations = 9

// setupChildMain builds one workload's system, prints the CPU seconds
// the process spent from the start of construction to the first
// simulated cycle, scaled to the reference host by the process's own
// calibration samples, and exits.
func setupChildMain(name string, seed uint64) int {
	wl := lookupWorkload(name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	start := processCPU()
	if err := wl.setup(seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	d := processCPU() - start
	cal := &calibrator{}
	for i := 0; i < setupSampleCalibrations; i++ {
		cal.sample()
	}
	fmt.Println(d.Seconds() * cal.factor())
	return 0
}
