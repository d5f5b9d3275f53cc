package fault_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// runTelemetryChaos runs one faulted scenario with the telemetry plane
// armed and returns the exported snapshot.
// The schedule includes line flaps, so the flight recorder sees real
// recovery events, not just steady-state quanta.
func runTelemetryChaos(t *testing.T) telemetry.Snapshot {
	t.Helper()
	sched := fault.Random(11, fault.RandomOptions{
		Horizon: 8000, MaxStalls: 5, MaxFlaps: 2, MaxFreezes: 1,
		MaxDRAM: 2, MaxStallCycles: 1000,
	})
	cfg := router.DefaultConfig()
	cfg.Metrics = telemetry.New(telemetry.Config{})
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Chip.InstallFaults(fault.NewInjector(sched, 16))

	rng := traffic.NewRNG(42)
	id := uint16(0)
	sizes := []int{64, 128, 256, 512}
	for c := 0; c < 12000; c += 200 {
		for p := 0; p < 4; p++ {
			for r.InputBacklogWords(p) < 2048 {
				id++
				pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)),
					traffic.PortAddr(rng.Intn(4), uint32(id)), 64, sizes[rng.Intn(4)], id)
				r.OfferPacket(p, &pkt)
			}
		}
		r.Run(200)
	}
	r.Run(30000)
	return r.TelemetrySnapshot()
}

// TestTelemetryExportBitForBit is the acceptance gate for the telemetry
// plane's determinism: the same faulted scenario run twice must export
// byte-identical jsonl, csv, and Prometheus text. Sampling happens on
// the simulation goroutine between cycles, so nothing about the
// snapshot may depend on host timing.
func TestTelemetryExportBitForBit(t *testing.T) {
	a := runTelemetryChaos(t)
	if a.Quanta == 0 {
		t.Fatal("collector sampled no quanta")
	}
	if len(a.Recent) == 0 {
		t.Fatal("flight recorder is empty")
	}
	b := runTelemetryChaos(t)
	for _, format := range telemetry.Formats() {
		ea, err := a.Encode(format)
		if err != nil {
			t.Fatalf("encode %s (first run): %v", format, err)
		}
		eb, err := b.Encode(format)
		if err != nil {
			t.Fatalf("encode %s (replay): %v", format, err)
		}
		if !bytes.Equal(ea, eb) {
			t.Errorf("%s export differs between two identical runs", format)
		}
	}
}

// TestTelemetryDisabledIsInert: arming the collector must not change a
// single observable router output — the plane watches, it never steers.
// (BenchmarkTelemetryOverhead guards the <1%% time budget; this guards
// behavior.)
func TestTelemetryDisabledIsInert(t *testing.T) {
	run := func(metrics bool) uint64 {
		cfg := router.DefaultConfig()
		if metrics {
			cfg.Metrics = telemetry.New(telemetry.Config{})
		}
		r, err := router.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := traffic.NewRNG(5)
		id := uint16(0)
		for c := 0; c < 6000; c += 200 {
			for p := 0; p < 4; p++ {
				for r.InputBacklogWords(p) < 2048 {
					id++
					pkt := ip.NewPacket(traffic.PortAddr(p, uint32(id)),
						traffic.PortAddr(rng.Intn(4), uint32(id)), 64, 256, id)
					r.OfferPacket(p, &pkt)
				}
			}
			r.Run(200)
		}
		r.Run(20000)
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", r.Stats())
		for p := 0; p < 4; p++ {
			fmt.Fprintf(h, " %d:%d", r.OutputWords(p), r.Quanta(p))
		}
		return h.Sum64()
	}
	if run(false) != run(true) {
		t.Fatal("arming the telemetry collector changed router behavior")
	}
}
