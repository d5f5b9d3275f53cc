package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/traffic"
)

// The §8.5 two-chip composition is a 2-chip ring: externals 0,1 live on
// chip 0 and 2,3 on chip 1, and the two trunk links join chip 0's ports
// 2,3 to chip 1's.

// ringTrunkWords returns the words a Ring(2) fabric carried from chip 0
// to chip 1 and back, summed over both trunk links.
func ringTrunkWords(f *cluster.Fabric) (aToB, bToA int64) {
	for ti, t := range f.Spec().Trunks() {
		d := 0 // direction leaving chip 0
		if t.A != 0 {
			d = 1
		}
		ab, _, _, _, _ := f.TrunkCounters(ti, d)
		ba, _, _, _, _ := f.TrunkCounters(ti, 1-d)
		aToB += ab
		bToA += ba
	}
	return aToB, bToA
}

// delivered reports whether external port e has delivered n packets.
func delivered(f *cluster.Fabric, e int, n int64) bool {
	chip, local := f.Spec().ExtPort(e)
	return f.Chip(chip).Stats().PktsOut[local] >= n
}

// TestCrossChipPacket routes a packet from chip 0's port 0 to chip 1's
// port 1 (external 3), across the trunk: two lookups, two crossbar
// traversals, two TTL decrements.
func TestCrossChipPacket(t *testing.T) {
	f := mustFabric(t, cluster.Ring(2), nil)
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(3, 7), 64, 256, 42)
	f.OfferPacket(0, &pkt)
	for i := 0; i < 600 && !delivered(f, 3, 1); i++ {
		f.Run(100)
	}
	if !delivered(f, 3, 1) {
		t.Fatalf("cross-chip packet never delivered; chip0=%+v chip1=%+v", f.Chip(0).Stats(), f.Chip(1).Stats())
	}
	out, err := f.DrainOutput(3)
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%d err=%v", len(out), err)
	}
	if out[0].Header.TTL != 62 {
		t.Fatalf("TTL %d, want 62 (two chip hops)", out[0].Header.TTL)
	}
	for i, w := range pkt.Payload {
		if out[0].Payload[i] != w {
			t.Fatalf("payload word %d corrupted crossing the trunk", i)
		}
	}
	if aToB, _ := ringTrunkWords(f); aToB == 0 {
		t.Fatal("no words crossed the chip 0 -> chip 1 trunk")
	}
}

// TestLocalPacketStaysOnChip: a same-chip packet never touches the trunk.
func TestLocalPacketStaysOnChip(t *testing.T) {
	f := mustFabric(t, cluster.Ring(2), nil)
	pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(1, 7), 64, 128, 5)
	f.OfferPacket(0, &pkt)
	for i := 0; i < 200 && !delivered(f, 1, 1); i++ {
		f.Run(100)
	}
	if got := f.Chip(0).Stats().PktsOut[1]; got != 1 {
		t.Fatalf("local packet not delivered (%d out); %+v", got, f.Chip(0).Stats())
	}
	if aToB, bToA := ringTrunkWords(f); aToB != 0 || bToA != 0 {
		t.Fatalf("local packet crossed the trunk: %d/%d words", aToB, bToA)
	}
}

// TestAllClusterPairs: on a fresh two-chip composition every ordered
// pair of the four external ports delivers its packet, local or across
// the trunk.
func TestAllClusterPairs(t *testing.T) {
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			f := mustFabric(t, cluster.Ring(2), nil)
			pkt := ip.NewPacket(traffic.PortAddr(src, 1), traffic.PortAddr(dst, 9), 64, 128, 7)
			f.OfferPacket(src, &pkt)
			ok := false
			for i := 0; i < 600 && !ok; i++ {
				f.Run(100)
				out, err := f.DrainOutput(dst)
				if err != nil {
					t.Fatalf("%d->%d: %v", src, dst, err)
				}
				ok = len(out) == 1
			}
			if !ok {
				t.Fatalf("%d->%d never delivered", src, dst)
			}
		}
	}
}

// TestTrunkScaling (§8.5): with balanced remote traffic the two trunk
// links carry the two cross-chip streams per direction at full rate —
// composition preserves external bandwidth — while the second lookup and
// crossbar traversal roughly double the packet latency. That is exactly
// the glueless-composition trade the thesis sketches.
func TestTrunkScaling(t *testing.T) {
	measure := func(remote bool) float64 {
		f := mustFabric(t, cluster.Ring(2), nil)
		id := uint16(0)
		core.Saturate(f, 80_000, core.Ports(4), func(p int) ip.Packet {
			id++
			// Local pairs: 0<->1, 2<->3. Remote: 0->2, 1->3, 2->0, 3->1.
			dst := p ^ 1
			if remote {
				dst = (p + 2) % 4
			}
			return ip.NewPacket(traffic.PortAddr(p, uint32(id)), traffic.PortAddr(dst, uint32(id)), 64, 1024, id)
		})
		return float64(f.ExternalWordsOut()*4*8) / (float64(f.Cycle()) / 250e6) / 1e9
	}
	local := measure(false)
	remote := measure(true)
	if local < 20 {
		t.Fatalf("local-only cluster throughput %.2f Gbps, want near single-chip peak", local)
	}
	if remote < local*0.85 {
		t.Fatalf("balanced remote traffic (%.2f Gbps) should sustain near-full rate vs local (%.2f): the 2-link trunk matches the 2 cross-chip streams", remote, local)
	}

	// Latency: one packet, local vs cross-chip.
	lat := func(dst int) int64 {
		f := mustFabric(t, cluster.Ring(2), nil)
		pkt := ip.NewPacket(traffic.PortAddr(0, 1), traffic.PortAddr(dst, 7), 64, 1024, 9)
		f.OfferPacket(0, &pkt)
		for i := 0; i < 600; i++ {
			f.Run(50)
			if delivered(f, dst, 1) {
				return f.Cycle()
			}
		}
		t.Fatalf("latency probe to %d never delivered", dst)
		return 0
	}
	localLat := lat(1)
	remoteLat := lat(2)
	// The second traversal costs another lookup + crossbar + egress
	// pipeline (~150 cycles on top of the ~400-cycle cold-start single
	// traversal).
	if remoteLat < localLat+100 {
		t.Fatalf("cross-chip latency %d cycles should exceed local %d by a traversal (~150 cycles)", remoteLat, localLat)
	}
	t.Logf("throughput: local %.2f / remote %.2f Gbps; latency: local %d / cross-chip %d cycles",
		local, remote, localLat, remoteLat)
}
