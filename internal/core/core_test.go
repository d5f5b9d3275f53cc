package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/raw"
	"repro/internal/rotor"
	"repro/internal/router"
)

func mustCycle(t *testing.T, cfg router.Config) *core.Router {
	t.Helper()
	r, err := core.NewCycle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCycleEngineQuickstart(t *testing.T) {
	r := mustCycle(t, router.DefaultConfig())
	res := r.RunSaturated(30000, core.PermutationTraffic(1024, 1))
	if res.Packets < 50 {
		t.Fatalf("only %d packets delivered", res.Packets)
	}
	if res.Gbps < 20 {
		t.Fatalf("cycle engine peak %.2f Gbps, expected ≈26", res.Gbps)
	}
	if r.Cycle() == nil || r.Fabric() != nil {
		t.Fatal("cycle router does not expose the cycle engine alone")
	}
}

func TestFabricEngineQuickstart(t *testing.T) {
	r := core.NewFabric(rotor.DefaultFabricConfig())
	res := r.RunSaturated(100000, core.UniformTraffic(1024, 2))
	if res.Packets < 100 {
		t.Fatalf("only %d packets delivered", res.Packets)
	}
	if res.Gbps < 10 || res.Gbps > 32 {
		t.Fatalf("fabric engine %.2f Gbps out of range", res.Gbps)
	}
}

func TestEnginesAgreeOnShape(t *testing.T) {
	// The two fidelity levels must agree on the peak/average ratio within
	// a few points — they share the allocation algorithm.
	ratio := func(build func() *core.Router) float64 {
		peak := build().RunSaturated(60000, core.PermutationTraffic(256, 2)).Gbps
		avg := build().RunSaturated(60000, core.UniformTraffic(256, 3)).Gbps
		return avg / peak
	}
	rc := ratio(func() *core.Router { return mustCycle(t, router.DefaultConfig()) })
	rf := ratio(func() *core.Router { return core.NewFabric(rotor.DefaultFabricConfig()) })
	if d := rc - rf; d > 0.12 || d < -0.12 {
		t.Fatalf("cycle ratio %.3f vs fabric ratio %.3f: engines diverge", rc, rf)
	}
}

func TestFabricScaling8Ports(t *testing.T) {
	cfg := rotor.DefaultFabricConfig()
	cfg.Ports = 8
	r := core.NewFabric(cfg)
	rng := uint64(0)
	res := r.RunSaturated(50000, func(port int) core.Packet {
		rng = rng*6364136223846793005 + 1442695040888963407
		return core.Packet{Dst: int(rng>>33) % 8, SizeBytes: 512}
	})
	if res.Packets < 100 {
		t.Fatalf("8-port fabric delivered %d packets", res.Packets)
	}
}

func TestWeightsBothEngines(t *testing.T) {
	// Fabric engine.
	fcfg := rotor.DefaultFabricConfig()
	fcfg.Weights = []int{3, 1, 1, 1}
	rf := core.NewFabric(fcfg)
	rf.RunSaturated(200_000, func(port int) core.Packet { return core.Packet{Dst: 2, SizeBytes: 256} })
	f := rf.Fabric()
	if f.GrantsPerInput[0] < 2*f.GrantsPerInput[1] {
		t.Fatalf("fabric weights ineffective: %v", f.GrantsPerInput)
	}
	// Cycle engine accepts weights too (full check in internal/router).
	cfg := router.DefaultConfig()
	cfg.Weights = []int{3, 1, 1, 1}
	mustCycle(t, cfg)
	cfg.Weights = []int{3, 1}
	if _, err := core.NewCycle(cfg); err == nil {
		t.Fatal("bad weights accepted by cycle engine")
	}
}

func TestCryptoOptionPassthrough(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Crypto, cfg.CryptoKey = true, 5
	r := mustCycle(t, cfg)
	if !r.Cycle().Config().Crypto || r.Cycle().Config().CryptoKey != 5 {
		t.Fatal("crypto options not passed through")
	}
}

// TestCycleConfigUsedAsGiven: NewCycle builds exactly the router.Config
// it is handed. The chip steps on the configured engine, and 1,024-byte
// packets cross the crossbar in 64-word quanta (four fragments each).
func TestCycleConfigUsedAsGiven(t *testing.T) {
	cfg := router.DefaultConfig()
	cfg.Engine = raw.EngineFast
	cfg.QuantumWords = 64
	r := mustCycle(t, cfg)
	if got := r.Cycle().Chip.Engine(); got != raw.EngineFast {
		t.Fatalf("chip engine %v, want the configured fast engine", got)
	}
	if got := r.Cycle().Config().QuantumWords; got != 64 {
		t.Fatalf("quantum %d words, want the configured 64", got)
	}
	res := r.RunSaturated(30000, core.PermutationTraffic(1024, 1))
	if res.Packets == 0 || res.Reassembled != res.Packets {
		t.Fatalf("%d of %d packets reassembled; 64-word quanta fragment every 1,024-byte packet",
			res.Reassembled, res.Packets)
	}
}
