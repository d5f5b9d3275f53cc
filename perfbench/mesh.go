package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/raw"
	"repro/internal/router"
)

// mesh16: a 4x4 mesh of routers (16 chips, 16 external ports on the
// grid boundary), closed loop, every external port held at the backlog
// with 1,024-byte packets sent half-way round: external e sends to
// external (e+8) mod 16, so every packet crosses chips and the
// bisection.
var meshLoop = loopConfig{
	chunk:   512,
	prefix:  8 * 512,
	episode: 128 * 512,
	runName: "cluster.run",
}

// meshSystem is the fabric under the closed loop.
type meshSystem struct{ *cluster.Fabric }

func newMeshLoop(seed uint64, ref bool) (*closedLoop, error) {
	cfg := cluster.Config{Topology: cluster.Mesh(4, 4), Router: router.DefaultConfig()}
	cfg.Router.Engine = raw.EngineFast
	if ref {
		cfg.Router.Engine = raw.EngineRef
	}
	f, err := cluster.NewFabric(cfg)
	if err != nil {
		return nil, err
	}
	ext := f.Spec().Externals()
	return newClosedLoop(meshSystem{f}, ext, func(e int) int { return (e + ext/2) % ext }, seed), nil
}

// conserve checks the fabric's trunk word conservation, that no chip
// dropped or lost a packet, and that the externals delivered no more
// packets than were offered, all of them drained but one per port in
// flight.
func (s meshSystem) conserve(o *oracle, offered, drained int64) {
	o.checkErr(s.ConservationError(), "trunk conservation")
	var drop, lost int64
	for k := 0; k < s.chips(); k++ {
		st := s.Chip(k).Stats()
		for p := 0; p < 4; p++ {
			drop += st.Dropped[p] + st.AbortDropped[p]
		}
		lost += st.FabricLost
	}
	ext := s.Spec().Externals()
	for e := 0; e < ext; e++ {
		drop += s.ExtDropped(e)
	}
	o.check(drop == 0 && lost == 0, "fabric dropped %d, lost %d", drop, lost)
	out := s.ExternalPktsOut()
	o.check(out <= offered && drained-out <= int64(ext) && out-drained <= int64(ext),
		"fabric delivered %d packets, drained %d, offered %d", out, drained, offered)
}

func (s meshSystem) state() string { return fmt.Sprintf("fingerprint %016x", s.Fingerprint()) }
func (s meshSystem) chips() int    { return s.Spec().NumChips() }

func (s meshSystem) counters() counters {
	var c counters
	for k := 0; k < s.chips(); k++ {
		c.add(s.Chip(k).Stats())
	}
	snap := s.TelemetrySnapshot()
	for _, t := range snap.Trunks {
		c.trunkFrames += t.Dir[0].Frames + t.Dir[1].Frames
	}
	c.bisectionWords = snap.BisectionWords
	return c
}

// perLayer reports the fabric's own metrics. cluster.run is the wall
// time of Fabric.Run, chip stepping included, so that stepping chips on
// several threads shows there (sim_mcycles_per_s is per CPU second).
func (s meshSystem) perLayer(e *env, st *stretch) {
	e.set("cluster.run_ns_per_chip_cycle", ratio(float64(e.tracer.total("cluster.run")), float64(st.chipCycles)))
	e.set("cluster.trunk_frames_per_kcycle", ratio(float64(st.c.trunkFrames), float64(st.cycles)/1000))
	// The cut carries one word per cycle per direction per trunk.
	cut := 2 * len(s.Spec().BisectionTrunks())
	e.set("cluster.bisection_util", ratio(float64(st.c.bisectionWords), float64(cut)*float64(st.cycles)))
}

func runMesh(e *env) error {
	return driveClosed(e, &meshLoop, func(ref bool) (*closedLoop, error) { return newMeshLoop(e.seed, ref) })
}

// buildMeshForSetup is the set-up the mesh16 workload pays before its
// first simulated cycle: building and programming all 16 chips with
// their topology-compiled tables, then the first backlog fill.
func buildMeshForSetup(seed uint64) error {
	l, err := newMeshLoop(seed, false)
	if err != nil {
		return err
	}
	l.offer()
	return nil
}
