package core

import "repro/internal/traffic"

// Open-loop facade helpers (serve-mode extension). Batch runs drive the
// router closed-loop — RunMeasured tops the input backlogs up from a
// generator every chunk — but a daemon admits externally arriving
// traffic and must advance the simulation whether or not new packets
// showed up. Step and DrainInFlight are that open-loop surface; the
// serve runtime layers admission queues and shedding on top.

// HotspotTraffic returns the §7.4 hotspot workload: 70% of packets target
// output 0, the rest are uniform. One shared seeded RNG serves all ports,
// matching the draw order the rawrouter CLI has always used, so existing
// seeded runs reproduce byte-for-byte.
func HotspotTraffic(sizeBytes int, seed uint64) TrafficGen {
	rng := traffic.NewRNG(seed)
	return func(port int) Packet {
		dst := 0
		if rng.Float64() >= 0.7 {
			dst = rng.Intn(4)
		}
		return Packet{Dst: dst, SizeBytes: sizeBytes}
	}
}

// WorkloadTraffic adapts a compiled traffic.Workload to the closed-loop
// TrafficGen contract: gen(port) draws the next packet from the
// workload's per-port source stream. The declarative successor to the
// UniformTraffic/PermutationTraffic/HotspotTraffic trio.
func WorkloadTraffic(w *traffic.Workload) (TrafficGen, error) {
	srcs, err := w.Sources()
	if err != nil {
		return nil, err
	}
	return func(port int) Packet {
		pkt := srcs[port].Next()
		return Packet{Dst: pkt.Dst, SizeBytes: pkt.SizeBytes, SrcIP: pkt.SrcIP, DstIP: pkt.DstIP}
	}, nil
}

// RunArrivals drives the router open-loop with a timestamped arrival
// process for the given number of slices — packets are offered at their
// arrival cycles, whether or not the router is keeping up — then drains
// in-flight work within drainBudget cycles. It returns the per-egress
// delivered words over the run and whether the drain reached
// quiescence. The arrival stream is a pure function of the process, so
// two routers driven by equal processes produce identical ledgers on
// either engine.
func (r *Router) RunArrivals(proc traffic.Process, slices, drainBudget int64) ([]int64, bool) {
	before := r.deliveredWords()
	cyc := proc.SliceCycles()
	now := int64(0) // offset from the run's first cycle
	for k := int64(0); k < slices; k++ {
		for _, a := range proc.Slice(k) {
			if a.Cycle > now {
				r.Step(a.Cycle - now)
				now = a.Cycle
			}
			r.Offer(a.Port, Packet{Dst: a.Pkt.Dst, SizeBytes: a.Pkt.SizeBytes,
				SrcIP: a.Pkt.SrcIP, DstIP: a.Pkt.DstIP})
		}
		if end := (k + 1) * cyc; end > now {
			r.Step(end - now)
			now = end
		}
	}
	ok := r.DrainInFlight(drainBudget)
	after := r.deliveredWords()
	for p := range after {
		after[p] -= before[p]
	}
	return after, ok
}

// deliveredWords is the cumulative per-egress delivered word count.
func (r *Router) deliveredWords() []int64 {
	if r.fab != nil {
		n := r.fab.Config().Ports
		out := make([]int64, n)
		for p := 0; p < n; p++ {
			out[p] = r.fab.WordsOut[p]
		}
		return out
	}
	out := make([]int64, 4)
	for p := 0; p < 4; p++ {
		out[p] = r.cyc.OutputWords(p)
	}
	return out
}

// Step advances the simulation by at least the given number of cycles
// without offering any new traffic. The cycle engine advances exactly
// cycles; the quantum-stepped fabric engine rounds up to its next quantum
// boundary.
func (r *Router) Step(cycles int64) {
	if r.fab != nil {
		end := r.fab.Cycles + cycles
		for r.fab.Cycles < end {
			r.fab.StepQuantum()
		}
		return
	}
	r.cyc.Run(cycles)
}

// Quiescent reports whether the router holds no work at all: nothing in
// flight inside the fabric and no undelivered words waiting at the input
// pins of live ports (a masked-out dead port cannot consume its backlog,
// so it is excluded). A quiescent router can be checkpointed or shut down
// without losing admitted traffic.
func (r *Router) Quiescent() bool {
	if r.fab != nil {
		for p := 0; p < r.fab.Config().Ports; p++ {
			if r.fab.QueueLen(p) > 0 {
				return false
			}
		}
		return true
	}
	if !r.cyc.Quiescent() {
		return false
	}
	for p := 0; p < 4; p++ {
		if p != r.cyc.DeadPort() && r.cyc.InputBacklogWords(p) > 0 {
			return false
		}
	}
	return true
}

// DrainInFlight steps the simulation until Quiescent or until the cycle
// budget is exhausted, and reports whether quiescence was reached. It
// checks in coarse chunks, so the simulation may run slightly past the
// first quiescent cycle.
func (r *Router) DrainInFlight(budget int64) bool {
	const chunk = 256
	for spent := int64(0); ; {
		if r.Quiescent() {
			return true
		}
		if spent >= budget {
			return false
		}
		step := int64(chunk)
		if rem := budget - spent; rem < step {
			step = rem
		}
		r.Step(step)
		spent += step
	}
}
