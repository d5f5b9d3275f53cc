package exp

import (
	"repro/internal/cluster"
	"repro/internal/ip"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// ScaleOut extends the §8.5 composition study from the two-chip trunk
// to the N-chip fabric: each topology kind at two sizes, all external
// ports offering balanced cross-fabric traffic (every packet leaves its
// source chip), reporting sustained external bandwidth and bisection
// occupancy. The table is the scaling story the paper's single trunk
// gestures at: a ring's bisection saturates while a mesh and fat-tree
// spread the same offered load over wider cuts.
//
// The two degraded columns extend the story to chip loss: the same
// workload with one chip down for the whole run, first with the static
// tables (traffic for the victim's externals is lost, and any route
// threaded through the victim strands at its trunks), then with the
// healing plane rerouting around the hole. "n/a" marks topologies whose
// surviving graph has no detour to heal (a 2-chip ring or fat-tree
// loses all paths between the survivors' externals and the victim's).
func ScaleOut(q Quality) *stats.Table {
	rounds := int(cyclesFor(q, 60, 400))
	specs := []cluster.Spec{
		cluster.Ring(2), cluster.Ring(4),
		cluster.Mesh(2, 2), cluster.Mesh(4, 4),
		cluster.FatTree(2), cluster.FatTree(4),
	}
	tb := &stats.Table{
		Caption: "§8.5 scale-out fabrics (cycle level): balanced cross-chip traffic, healthy and one chip down",
		Headers: []string{"topology", "chips", "externals", "Gbps", "bisection util", "Gbps 1-down", "Gbps healed"},
	}
	for _, spec := range specs {
		gbps, bisect := scaleOutRun(spec, rounds, scaleOutHealthy)
		row := []any{spec.String(), spec.NumChips(), spec.Externals(), gbps, bisect}
		if spec.PartitionRisk() != "" {
			// Losing a chip partitions this topology: there is no detour
			// for healing to find, so the degraded columns do not apply.
			row = append(row, "n/a", "n/a")
		} else {
			down, _ := scaleOutRun(spec, rounds, scaleOutDegraded)
			healed, _ := scaleOutRun(spec, rounds, scaleOutHealed)
			row = append(row, down, healed)
		}
		tb.AddRow(row...)
	}
	return tb
}

// Degraded-run modes: healthy, one chip down with static tables, one
// chip down with the healing plane rerouting around it.
const (
	scaleOutHealthy = iota
	scaleOutDegraded
	scaleOutHealed
)

// scaleOutVictim picks the chip to kill: a middle chip, so ring and
// mesh routes actually thread through it and static tables strand
// traffic a healed fabric detours.
func scaleOutVictim(spec cluster.Spec) int {
	return spec.NumChips() / 2
}

// scaleOutRun drives one fabric instance and returns (Gbps, bisection
// utilization). Traffic is the antipodal pairing: external e sends to
// external (e + E/2) mod E, which always crosses chips and loads the
// bisection cut of every topology. Degraded modes kill the victim chip
// before any traffic is offered and report the surviving externals'
// sustained bandwidth.
func scaleOutRun(spec cluster.Spec, rounds, mode int) (float64, float64) {
	cfg := cluster.Config{Topology: spec, Router: router.DefaultConfig()}
	cfg.Router.Engine = chipEngine
	if mode == scaleOutHealed {
		cfg.Heal = cluster.HealConfig{Enabled: true}
	}
	f, err := cluster.NewFabric(cfg)
	if err != nil {
		panic(err)
	}
	if mode != scaleOutHealthy {
		if err := f.KillChip(scaleOutVictim(spec)); err != nil {
			panic(err)
		}
	}
	ext := spec.Externals()
	id := uint16(0)
	for i := 0; i < rounds; i++ {
		for e := 0; e < ext; e++ {
			// Refused offers (dead ingress, dead destination) never grow
			// the backlog; bound the fill by attempts so degraded runs
			// terminate.
			for tries := 0; f.InputBacklogWords(e) < 4096 && tries < 64; tries++ {
				id++
				dst := (e + ext/2) % ext
				pkt := ip.NewPacket(traffic.PortAddr(e, uint32(id)),
					traffic.PortAddr(dst, uint32(id)), 64, 1024, id)
				f.OfferPacket(e, &pkt)
			}
		}
		f.Run(200)
	}
	snap := f.TelemetrySnapshot()
	return stats.Gbps(f.ExternalWordsOut()*4, f.Cycle(), cfg.Router.ClockHz),
		snap.BisectionUtilization
}
