package cluster_test

import (
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/traffic"
)

// Cross-engine conformance suite: every topology kind must step
// bit-for-bit identically under the reference interpreter and the
// compiled fast engine, with no topology-specific carve-outs. Equality is checked three ways — the
// fabric Fingerprint (counters, lifecycle, trunk state), an FNV digest
// of every word drained at every external port, and (for the engine
// switch) the FABCKPT1 blob itself.

// confRun drives spec for cycles cycles under the given engine with a
// deterministic all-pairs feed, folding every drained output word into
// a digest. Returns (fingerprint, output digest).
func confRun(t *testing.T, spec cluster.Spec, engine raw.Engine, cycles int64) (uint64, uint64) {
	t.Helper()
	f := mustFabric(t, spec, func(c *cluster.Config) {
		c.Router.Engine = engine
	})
	return driveConf(t, f, spec, cycles, 0)
}

// driveConf runs the canonical conformance workload on an existing
// fabric: each external offers fixed-size packets to a rotating
// destination whenever its backlog has room, in 200-cycle rounds,
// starting the packet-id sequence at idBase (so a resumed run continues
// the exact offered stream). Every drained word is folded into the
// digest in (port, order) sequence.
func driveConf(t *testing.T, f *cluster.Fabric, spec cluster.Spec, cycles int64, idBase uint16) (uint64, uint64) {
	t.Helper()
	h := fnv.New64a()
	word := func(w uint32) {
		h.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	id := idBase
	ext := spec.Externals()
	for done := int64(0); done < cycles; done += 200 {
		for src := 0; src < ext; src++ {
			if f.InputBacklogWords(src) < 2048 {
				id++
				dst := (src + int(id)) % ext
				if dst == src {
					dst = (dst + 1) % ext
				}
				pkt := ip.NewPacket(traffic.PortAddr(src, uint32(id)),
					traffic.PortAddr(dst, uint32(id)), 64, 256, id)
				f.OfferPacket(src, &pkt)
			}
		}
		f.Run(200)
		for e := 0; e < ext; e++ {
			out, err := f.DrainOutput(e)
			if err != nil {
				t.Fatal(err)
			}
			word(uint32(e))
			for _, p := range out {
				for _, w := range p.Header.Marshal() {
					word(w)
				}
				for _, w := range p.Payload {
					word(w)
				}
			}
		}
	}
	if err := f.ConservationError(); err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return f.Fingerprint(), h.Sum64()
}

// TestEngineConformanceMatrix fingerprint-diffs ref against fast on
// every topology kind.
func TestEngineConformanceMatrix(t *testing.T) {
	specs := []cluster.Spec{cluster.Ring(3), cluster.Mesh(2, 2), cluster.FatTree(2)}
	for _, spec := range specs {
		const cycles = 6000
		refFP, refDig := confRun(t, spec, raw.EngineRef, cycles)
		fp, dig := confRun(t, spec, raw.EngineFast, cycles)
		if fp != refFP {
			t.Errorf("%s: fast fingerprint %#x != ref %#x", spec, fp, refFP)
		}
		if dig != refDig {
			t.Errorf("%s: fast output digest %#x != ref %#x", spec, dig, refDig)
		}
	}
}

// TestMesh16ChipConformance is the acceptance-criteria case: the
// 16-chip, 64-port mesh steps bit-for-bit identically under the ref
// and fast engines.
func TestMesh16ChipConformance(t *testing.T) {
	spec := cluster.Mesh(4, 4)
	const cycles = 4000
	refFP, refDig := confRun(t, spec, raw.EngineRef, cycles)
	fp, dig := confRun(t, spec, raw.EngineFast, cycles)
	if fp != refFP {
		t.Errorf("mesh-4x4 fast: fingerprint %#x != ref %#x", fp, refFP)
	}
	if dig != refDig {
		t.Errorf("mesh-4x4 fast: output digest %#x != ref %#x", dig, refDig)
	}
}

// TestEngineSwitchMidRun checkpoints a ref-engine fabric mid-arc,
// restores the blob into a fast-engine fabric, and finishes the run on
// both: fingerprints, output digests, and the final FABCKPT1 blobs must
// all match — engine choice is invisible to fabric state.
func TestEngineSwitchMidRun(t *testing.T) {
	spec := cluster.Ring(3)
	build := func(engine raw.Engine) *cluster.Fabric {
		return mustFabric(t, spec, func(c *cluster.Config) {
			c.Router.Engine = engine
			c.Router.Checkpoint = true
		})
	}
	ref := build(raw.EngineRef)
	_, _ = driveConf(t, ref, spec, 3000, 0)
	blob, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fast := build(raw.EngineFast)
	if err := fast.RestoreSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	// Continue both with the identical feed continuation.
	refFP, refDig := driveConf(t, ref, spec, 3000, 9000)
	fastFP, fastDig := driveConf(t, fast, spec, 3000, 9000)
	if refFP != fastFP || refDig != fastDig {
		t.Fatalf("engine switch diverged: ref (%#x, %#x) vs fast (%#x, %#x)",
			refFP, refDig, fastFP, fastDig)
	}
	refBlob, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fastBlob, err := fast.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(refBlob) != string(fastBlob) {
		t.Fatal("final FABCKPT1 blobs differ after mid-run engine switch")
	}
}
