package cluster_test

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/raw"
	"repro/internal/traffic"
)

// Healing soak: a seeded trunk-loss arc followed by a chip-loss arc on a
// ring-4 fabric with the healing plane armed, checkpointed mid-heal
// (trunk dark, ARQ custody and healed tables live) and restored into a
// fresh fabric that must finish the run byte-for-byte identically, then
// drained to quiescence where the end-to-end ledger must balance with
// nothing pending. `make soak-heal` widens the matrix with SOAK_SEEDS
// under -race.

func TestSoakHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("healing soak skipped in -short")
	}
	spec := cluster.Ring(4)
	seeds := fabricSoakSeeds(t)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			rng := traffic.NewRNG(seed)
			n := spec.NumChips()
			// Non-overlapping arcs: trunk dark through the phase-1/phase-2
			// boundary (so the checkpoint lands mid-heal), then a chip kill
			// and re-admission strictly after the trunk is back. A ring
			// minus any single element stays connected, so the run never
			// partitions and every surviving flow keeps a detour.
			ta := int(rng.Uint64() % uint64(n))
			tb := (ta + 1) % n
			victim := int(rng.Uint64() % uint64(n))
			tkill := int64(1500 + rng.Uint64()%1500)    // phase 1 (cycles 0..4000)
			trestore := int64(4200 + rng.Uint64()%1200) // phase 2
			ckill := trestore + 400 + int64(rng.Uint64()%800)
			crestore := ckill + 800 + int64(rng.Uint64()%800) // still < 10000
			// Feed-phase seeds, shared by both runs.
			p1 := rng.Uint64()
			p2 := rng.Uint64()
			sched := fault.MustParse(
				"killtrunk@" + strconv.FormatInt(tkill, 10) + ":c" + strconv.Itoa(ta) + "-c" + strconv.Itoa(tb) +
					";restoretrunk@" + strconv.FormatInt(trestore, 10) + ":c" + strconv.Itoa(ta) + "-c" + strconv.Itoa(tb) +
					";killchip@" + strconv.FormatInt(ckill, 10) + ":c" + strconv.Itoa(victim) +
					";restorechip@" + strconv.FormatInt(crestore, 10) + ":c" + strconv.Itoa(victim))

			build := func() *cluster.Fabric {
				f := mustFabric(t, spec, func(c *cluster.Config) {
					c.Router.Engine = raw.EngineFast
					c.Router.Checkpoint = true
					c.Heal = cluster.HealConfig{Enabled: true, Seed: seed}
				})
				f.ApplySchedule(sched)
				return f
			}

			// Uninterrupted reference: feed through the trunk kill,
			// checkpoint while the trunk is dark, feed through the chip arc,
			// drain past the longest ARQ backoff.
			ref := build()
			soakFeed(ref, spec, traffic.NewRNG(p1), 20) // 4000 cycles: trunk is dark
			if d := ref.Delivery(); d.HealEpochs == 0 {
				t.Fatalf("seed %d: no heal epoch by cycle %d (killtrunk@%d)", seed, ref.Cycle(), tkill)
			}
			blob, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			soakFeed(ref, spec, traffic.NewRNG(p2), 30) // through restore + chip arc
			ref.Run(12000)                              // drain dry (max backoff ~4k cycles)
			refFinal, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// The full arc must have happened and healed.
			d := ref.Delivery()
			if d.HealEpochs != 4 {
				t.Fatalf("seed %d: %d heal epochs, want 4", seed, d.HealEpochs)
			}
			if ref.ChipDead(victim) || ref.ChipEpoch(victim) != 1 {
				t.Fatalf("seed %d: victim dead=%v epoch=%d after re-admission",
					seed, ref.ChipDead(victim), ref.ChipEpoch(victim))
			}
			if err := ref.DeliveryError(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if d.PendingFrames != 0 {
				t.Fatalf("seed %d: %d frames still pending after quiescence", seed, d.PendingFrames)
			}
			if d.Injected == 0 || d.Delivered == 0 {
				t.Fatalf("seed %d: degenerate run (injected %d, delivered %d)", seed, d.Injected, d.Delivered)
			}

			// Restore the mid-heal checkpoint into a fresh fabric and finish
			// identically: byte-equal finals, equal fingerprints.
			res := build()
			if err := res.RestoreSnapshot(blob); err != nil {
				t.Fatalf("seed %d: restore: %v", seed, err)
			}
			soakFeed(res, spec, traffic.NewRNG(p2), 30)
			res.Run(12000)
			resFinal, err := res.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refFinal, resFinal) {
				t.Fatalf("seed %d: restored run diverged from uninterrupted run (%d vs %d bytes)",
					seed, len(refFinal), len(resFinal))
			}
			if ref.Fingerprint() != res.Fingerprint() {
				t.Fatalf("seed %d: fingerprints diverged", seed)
			}
			if err := res.DeliveryError(); err != nil {
				t.Fatalf("seed %d: restored fabric ledger: %v", seed, err)
			}
		})
	}
}
