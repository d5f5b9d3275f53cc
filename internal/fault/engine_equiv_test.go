package fault_test

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/fault"
	"repro/internal/raw"
	"repro/internal/telemetry"
)

// The engine oracle over the fault layer: every chaos and soak schedule
// is re-run under the compiled fast engine and must be indistinguishable
// from the reference interpreter — same fingerprint over cycle count,
// stats, dead/failed state, output words, quanta, and delivered
// payloads; same final checkpoint bytes; same telemetry exports. The
// chaos runs install a fault plane, which keeps macro-stepping disarmed
// (fault schedules perturb individual cycles), so they exercise the fast
// engine's per-cycle path; the soak runs have no fault plane, so the
// router's step hook lets macro windows engage mid-quantum and the
// byte-for-byte comparisons below cover the macro restore path too.
// Macro engagement counters themselves (StatsSnapshot/telemetry macro
// fields) are host-engine observability outside the equivalence surface:
// the fingerprints hash the embedded Stats only, and the telemetry
// export comparison normalizes the macro fields to zero first.

// TestChaosEngineEquivalence replays every pinned chaos schedule under
// the fast engine against the reference interpreter, failing on the
// first divergent fingerprint.
func TestChaosEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("engine chaos matrix skipped in -short")
	}
	crashNoise := fault.Random(5, fault.RandomOptions{
		Horizon: 8000, MaxStalls: 4, MaxFlaps: 2, MaxFreezes: 0,
		MaxDRAM: 1, MaxStallCycles: 800,
	})
	scenarios := []struct {
		name        string
		sched       *fault.Schedule
		watchdog    bool
		trafficSeed uint64
		feed, drain int
	}{
		{"recoverable-seed1", fault.Random(1, fault.RandomOptions{
			Horizon: 10000, MaxStalls: 6, MaxFlaps: 3, MaxFreezes: 2,
			MaxDRAM: 2, MaxStallCycles: 1200,
		}), false, 101, 15000, 60000},
		{"recoverable-seed2", fault.Random(2, fault.RandomOptions{
			Horizon: 10000, MaxStalls: 6, MaxFlaps: 3, MaxFreezes: 2,
			MaxDRAM: 2, MaxStallCycles: 1200,
		}), false, 102, 15000, 60000},
		{"recoverable-seed3", fault.Random(3, fault.RandomOptions{
			Horizon: 10000, MaxStalls: 6, MaxFlaps: 3, MaxFreezes: 2,
			MaxDRAM: 2, MaxStallCycles: 1200,
		}), false, 103, 15000, 60000},
		{"replay-seed7", fault.Random(7, fault.RandomOptions{
			Horizon: 8000, MaxStalls: 5, MaxFlaps: 2, MaxFreezes: 1,
			MaxDRAM: 2, MaxStallCycles: 1000,
		}), false, 42, 12000, 50000},
		{"crash-degrade", &fault.Schedule{Events: append(crashNoise.Events,
			fault.MustParse("crash@5000:t10").Events...)}, true, 9, 18000, 70000},
		{"corruption-pin-drops", fault.MustParse(
			"corrupt:t4.w.w194.b9;corrupt:t4.w.w468.b4;drop:t11.e.w320+64"),
			false, 8, 8000, 40000},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref := runChaos(t, sc.sched, sc.watchdog, raw.EngineRef, sc.trafficSeed, sc.feed, sc.drain)
			fast := runChaos(t, sc.sched, sc.watchdog, raw.EngineFast, sc.trafficSeed, sc.feed, sc.drain)
			if fast.dead != ref.dead || fast.failed != ref.failed {
				t.Fatalf("fast engine: health diverged: dead=%d failed=%v, want dead=%d failed=%v",
					fast.dead, fast.failed, ref.dead, ref.failed)
			}
			if fast.stats != ref.stats {
				t.Fatalf("fast engine: stats diverged:\nfast %+v\nref  %+v", fast.stats, ref.stats)
			}
			if len(fast.delivered) != len(ref.delivered) {
				t.Fatalf("fast engine: delivered %d packets, ref delivered %d",
					len(fast.delivered), len(ref.delivered))
			}
			if fast.fp != ref.fp {
				t.Fatalf("fast engine: fingerprint diverged: %x vs ref %x", fast.fp, ref.fp)
			}
		})
	}
}

// TestSoakEngineEquivalence runs every soak seed's full degrade→restore
// arc under both engines and requires byte-identical final checkpoints,
// event logs, and telemetry exports.
func TestSoakEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("engine soak matrix skipped in -short")
	}
	seeds := soakSeeds(t)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		sched, port := soakSchedule(seed)
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			drive := func(eng raw.Engine) (*soakRun, []byte) {
				s := newSoakRun(t, eng, sched)
				s.feedPhase(seed + 100)
				s.r.Run(34000)
				blob, err := s.r.Snapshot()
				if err != nil {
					t.Fatalf("seed %d (%v engine): %v", seed, eng, err)
				}
				return s, blob
			}
			ref, refBlob := drive(raw.EngineRef)
			fast, fastBlob := drive(raw.EngineFast)
			if rc, fc := ref.r.Cycle(), fast.r.Cycle(); rc != fc {
				t.Fatalf("seed %d (port %d): cycle count diverged: ref %d, fast %d", seed, port, rc, fc)
			}
			if !bytes.Equal(refBlob, fastBlob) {
				t.Fatalf("seed %d (port %d, %q): final checkpoint differs between engines", seed, port, sched)
			}
			if rl, fl := ref.ev.String(), fast.ev.String(); rl != fl {
				t.Fatalf("seed %d: event logs diverged:\nref:\n%s\nfast:\n%s", seed, rl, fl)
			}
			refSnap, fastSnap := ref.r.TelemetrySnapshot(), fast.r.TelemetrySnapshot()
			// The macro engagement fields describe the host engine (the
			// fast run macro-steps, the reference run cannot); zero them
			// on both sides so the comparison covers exactly the
			// simulation-visible surface.
			for _, s := range []*telemetry.Snapshot{&refSnap, &fastSnap} {
				s.MacroWindows, s.MacroCycles, s.MacroDisarms = 0, 0, nil
			}
			for _, format := range telemetry.Formats() {
				re, err := refSnap.Encode(format)
				if err != nil {
					t.Fatalf("encode %s (ref): %v", format, err)
				}
				fe, err := fastSnap.Encode(format)
				if err != nil {
					t.Fatalf("encode %s (fast): %v", format, err)
				}
				if !bytes.Equal(re, fe) {
					t.Errorf("seed %d: %s telemetry export differs between engines", seed, format)
				}
			}
		})
	}
}
