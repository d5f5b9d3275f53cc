package main

import (
	"fmt"

	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/traffic"
)

// perm1024: one router, closed loop, every input held at the backlog
// with §7.2 rotated-permutation 1,024-byte traffic (input i sends to
// output i+1 mod 4), output drained and checked every chunk.
var permLoop = loopConfig{
	chunk:   2048,
	prefix:  16 * 2048,
	episode: 256 * 2048,
	runName: "raw.run",
}

// permSystem is the router under the closed loop.
type permSystem struct{ *router.Router }

func newPermLoop(seed uint64, ref bool) (*closedLoop, error) {
	cfg := router.DefaultConfig()
	cfg.Engine = raw.EngineFast
	if ref {
		cfg.Engine = raw.EngineRef
	}
	r, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	perm := traffic.RotatedPerm(4, 1)
	return newClosedLoop(permSystem{r}, 4, func(p int) int { return perm[p] }, seed), nil
}

// conserve checks the router's packet conservation: nothing dropped,
// nothing delivered that was not streamed in, nothing streamed in that
// was not offered, and every delivered packet drained: the drained count
// and the delivered counter may differ by one packet per port in
// flight between the egress pins and the counter update.
func (s permSystem) conserve(o *oracle, offered, drained int64) {
	st := s.Stats()
	var in, out, acc, drop int64
	for p := 0; p < 4; p++ {
		in += st.PktsIn[p]
		out += st.PktsOut[p]
		acc += st.Accepted[p]
		drop += st.Dropped[p] + st.AbortDropped[p]
	}
	o.check(drop == 0 && st.FabricLost == 0, "router dropped %d packets, lost %d", drop, st.FabricLost)
	o.check(out <= in && in <= acc && acc <= offered, "router conservation: out %d in %d accepted %d offered %d", out, in, acc, offered)
	o.check(drained-out <= 4 && out-drained <= 4, "drained %d packets, %d delivered", drained, out)
}

func (s permSystem) state() string {
	st := s.Stats()
	return fmt.Sprintf("in %v out %v denied %v frags %v", st.PktsIn, st.PktsOut, st.Denied, st.FragsSent)
}

func (s permSystem) counters() counters {
	var c counters
	c.add(s.Stats())
	return c
}

func (permSystem) chips() int              { return 1 }
func (permSystem) perLayer(*env, *stretch) {}

func runPerm(e *env) error {
	return driveClosed(e, &permLoop, func(ref bool) (*closedLoop, error) { return newPermLoop(e.seed, ref) })
}

// buildPermForSetup is the set-up the perm1024 workload pays before its
// first simulated cycle: router construction and firmware code
// generation, then the first backlog fill.
func buildPermForSetup(seed uint64) error {
	l, err := newPermLoop(seed, false)
	if err != nil {
		return err
	}
	l.offer()
	return nil
}
