package main

import (
	"flag"
	"os"
	"testing"

	"repro/internal/traffic"
)

// runArgs runs the command on a fresh flag set, as if invoked with args.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	savedFlags, savedArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = savedFlags, savedArgs }()
	flag.CommandLine = flag.NewFlagSet("rawrouter", flag.ContinueOnError)
	os.Args = append([]string{"rawrouter"}, args...)
	return run()
}

// TestServeRejectsBadSyntheticFeed: the default synthetic feed refuses a
// packet size below the IP header and a negative offered load at
// startup, before the daemon binds its control plane.
func TestServeRejectsBadSyntheticFeed(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "-size", "12"},
		{"-serve", "-rate", "-5"},
	} {
		if code := runArgs(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestSyntheticSpecDefaults: the default flags describe the offset-1
// permutation of 1,024-byte packets at 0.8 words/cycle/port, and zero
// size and rate fall back to the same defaults.
func TestSyntheticSpecDefaults(t *testing.T) {
	for _, s := range []traffic.Spec{
		syntheticSpec("perm", 1024, 1, 800),
		syntheticSpec("perm", 0, 0, 0),
	} {
		w, err := traffic.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Spec
		if got.Pattern != "permutation" || got.Params["offset"] != 1 ||
			got.Size != 1024 || got.Rate != 0.8 || got.Ports != 4 || got.Seed != 1 {
			t.Errorf("spec %+v, want offset-1 permutation, 1024 B, rate 0.8, 4 ports, seed 1", got)
		}
	}
}
