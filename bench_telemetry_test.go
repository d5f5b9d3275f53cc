// Telemetry-plane cost benchmark: the router consults the collector at
// two choke points — one nil guard per cycle in the control hook and one
// per quantum in the crossbar firmware. This benchmark proves the
// disabled plane is free and bounds what arming it costs —
// BENCH_telemetry.json records the numbers against the pre-telemetry
// baseline (same benchmark body, same host), and
// scripts/bench_telemetry.sh regenerates the file and enforces the <1%
// disabled-overhead bar.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// BenchmarkTelemetryOverhead measures host ns per simulated router cycle
// under full load, exactly like BenchmarkSimulatorCyclesPerSecond,
// in three configurations:
//
//	off     cfg.Metrics == nil: every telemetry hook nil-guarded out
//	on      collector armed (per-quantum sampling + flight recorder)
//	export  snapshot assembly plus all three encoders, per op
//
// "off" is the number BENCH_telemetry.json compares against the
// pre-telemetry commit's sequential baseline (<1% is the acceptance bar);
// "on" bounds the armed plane's cost; "export" prices the post-run
// snapshot (it never sits on the simulation's hot path).
func BenchmarkTelemetryOverhead(b *testing.B) {
	bench := func(metrics bool) func(b *testing.B) {
		return func(b *testing.B) {
			rcfg := router.DefaultConfig()
			if metrics {
				rcfg.Metrics = telemetry.New(telemetry.Config{})
			}
			r, err := core.NewCycle(rcfg)
			if err != nil {
				b.Fatal(err)
			}
			gen := core.PermutationTraffic(1024, 1)
			r.RunSaturated(5000, gen) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RunSaturated(200, gen) // 200 simulated cycles per op
			}
			b.ReportMetric(200, "sim-cycles/op")
		}
	}
	b.Run("off", bench(false))
	b.Run("on", bench(true))

	b.Run("export", func(b *testing.B) {
		rcfg := router.DefaultConfig()
		rcfg.Metrics = telemetry.New(telemetry.Config{})
		r, err := core.NewCycle(rcfg)
		if err != nil {
			b.Fatal(err)
		}
		r.RunSaturated(20_000, core.PermutationTraffic(1024, 1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := r.Cycle().TelemetrySnapshot()
			for _, format := range telemetry.Formats() {
				if _, err := snap.Encode(format); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
