// Package core is the public face of the library: a Rotating Crossbar
// router on the Raw tiled architecture, runnable at two fidelity levels
// that share one allocation algorithm (internal/rotor):
//
//   - NewCycle: the full cycle-level router of the paper — sixteen
//     simulated Raw tiles, generated static-switch programs, IP
//     validation, lookup in simulated DRAM (internal/router). Use it to
//     reproduce the paper's measured numbers.
//   - NewFabric: a quantum-stepped model of just the switch fabric.
//     Use it for property studies, load sweeps, QoS/multicast/scaling
//     experiments, or whenever a million quanta per second matter more
//     than per-cycle truth.
//
// A minimal session:
//
//	r, _ := core.NewCycle(router.DefaultConfig())
//	r.Offer(0, core.Packet{Dst: 2, SizeBytes: 1024})
//	res := r.RunSaturated(100_000, core.UniformTraffic(1024, 1))
//	fmt.Println(res.Gbps, res.Mpps)
package core

import (
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/rotor"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Packet is a routing request at the facade level.
type Packet struct {
	// Dst is the destination output port.
	Dst int
	// SizeBytes is the on-wire size (IP header included).
	SizeBytes int
	// SrcIP/DstIP override the synthetic addresses (cycle engine; DstIP
	// must resolve to Dst under the installed table).
	SrcIP, DstIP ip.Addr
}

// Results summarizes a run.
type Results struct {
	Cycles      int64
	Packets     int64
	Bytes       int64
	Gbps        float64
	Mpps        float64
	PerPort     []int64 // packets delivered per egress
	Denied      int64   // quanta lost to arbitration (offered load shed)
	ClockHz     float64
	Reassembled int64
}

// Router is the façade over both engines.
type Router struct {
	cyc *router.Router
	fab *rotor.Fabric

	clockHz float64
	id      uint16
}

// NewCycle builds the cycle-level router from cfg, used as given (like
// router.New, a zero Config selects router.DefaultConfig wholesale).
func NewCycle(cfg router.Config) (*Router, error) {
	cyc, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Router{cyc: cyc, clockHz: cyc.Config().ClockHz}, nil
}

// NewFabric builds the quantum-stepped fabric engine from cfg, used as
// given. Its rates are reported at the Raw prototype's clock.
func NewFabric(cfg rotor.FabricConfig) *Router {
	return &Router{fab: rotor.NewFabric(cfg), clockHz: raw.DefaultClockHz}
}

// Cycle returns the underlying cycle-level router, or nil for the fabric
// engine. It exposes the full instrumented surface (tile traces, chip
// internals) for advanced use.
func (r *Router) Cycle() *router.Router { return r.cyc }

// Fabric returns the underlying quantum-stepped fabric, or nil.
func (r *Router) Fabric() *rotor.Fabric { return r.fab }

// Offer enqueues one packet at input port p.
func (r *Router) Offer(p int, pkt Packet) {
	if r.fab != nil {
		r.fab.Offer(p, pkt.Dst, max(pkt.SizeBytes, ip.HeaderBytes)/4)
		return
	}
	ipPkt := r.ipPacket(p, pkt)
	r.cyc.OfferPacket(p, &ipPkt)
}

// ipPacket builds the cycle engine's IP packet for pkt at input port p,
// filling in synthetic addresses the caller left unset.
func (r *Router) ipPacket(p int, pkt Packet) ip.Packet {
	r.id++
	src := pkt.SrcIP
	if src == 0 {
		src = traffic.PortAddr(p, uint32(r.id))
	}
	dst := pkt.DstIP
	if dst == 0 {
		dst = traffic.PortAddr(pkt.Dst, uint32(r.id)*2654435761)
	}
	return ip.NewPacket(src, dst, 64, max(pkt.SizeBytes, ip.HeaderBytes), r.id)
}

// TrafficGen produces the next packet for a port.
type TrafficGen func(port int) Packet

// UniformTraffic returns a generator with uniform destinations — the
// §7.3 average-rate workload.
func UniformTraffic(sizeBytes int, seed uint64) TrafficGen {
	rng := traffic.NewRNG(seed)
	return func(port int) Packet {
		return Packet{Dst: rng.Intn(4), SizeBytes: sizeBytes}
	}
}

// PermutationTraffic returns the conflict-free peak-rate workload (§7.2).
func PermutationTraffic(sizeBytes, offset int) TrafficGen {
	perm := traffic.RotatedPerm(4, offset)
	return func(port int) Packet {
		return Packet{Dst: perm[port], SizeBytes: sizeBytes}
	}
}

// RunSaturated drives every input at full backlog with gen for the given
// number of cycles and returns throughput results over those cycles.
func (r *Router) RunSaturated(cycles int64, gen TrafficGen) Results {
	return r.RunMeasured(0, cycles, gen)
}

// RunMeasured runs warmup cycles first (letting the data caches and the
// packet pipeline reach steady state) and then measures over the next
// measure cycles. All rates in the Results are for the measured window
// only.
func (r *Router) RunMeasured(warmup, measure int64, gen TrafficGen) Results {
	if r.fab != nil {
		r.runFabricFor(warmup, gen)
		before := r.snapFabric()
		r.runFabricFor(measure, gen)
		return r.fabricDelta(before)
	}
	r.runCycleFor(warmup, gen)
	before := r.snapCycle()
	r.runCycleFor(measure, gen)
	return r.cycleDelta(before)
}

// Target is a cycle-level switch seen through its external ports: a
// router.Router, or a cluster.Fabric of them.
type Target interface {
	InputBacklogWords(port int) int
	OfferPacket(port int, pkt *ip.Packet)
	Run(cycles int64)
}

// Saturate is the closed-loop saturation driver: it runs t for cycles,
// rounded up to whole 200-cycle chunks, and before every chunk tops each
// port in ports up to a 4,096-word input backlog with packets from
// next(port). The inputs never run dry, so delivered rates measure the
// switch. next owns the packet contents (destinations, RNG draws, ids),
// so every caller's traffic stays its own.
func Saturate(t Target, cycles int64, ports []int, next func(port int) ip.Packet) {
	const chunk, backlog = 200, 4096
	for c := int64(0); c < cycles; c += chunk {
		for _, p := range ports {
			for t.InputBacklogWords(p) < backlog {
				pkt := next(p)
				t.OfferPacket(p, &pkt)
			}
		}
		t.Run(chunk)
	}
}

// Ports returns the port list 0..n-1.
func Ports(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

type snapshot struct {
	cycles      int64
	pkts        int64
	words       int64
	perPort     []int64
	denied      int64
	reassembled int64
}

func (r *Router) runCycleFor(cycles int64, gen TrafficGen) {
	Saturate(r.cyc, cycles, Ports(4), func(p int) ip.Packet { return r.ipPacket(p, gen(p)) })
}

func (r *Router) snapCycle() snapshot {
	s := snapshot{cycles: r.cyc.Cycle(), pkts: r.cyc.TotalPktsOut()}
	for p := 0; p < 4; p++ {
		s.perPort = append(s.perPort, r.cyc.Stats().PktsOut[p])
		s.words += r.cyc.OutputWords(p)
		s.denied += r.cyc.Stats().Denied[p]
		s.reassembled += r.cyc.Stats().Reassembled[p]
	}
	return s
}

func (r *Router) cycleDelta(before snapshot) Results {
	now := r.snapCycle()
	cycles := now.cycles - before.cycles
	res := Results{
		Cycles:      cycles,
		Packets:     now.pkts - before.pkts,
		Bytes:       (now.words - before.words) * 4,
		Gbps:        stats.Gbps((now.words-before.words)*4, cycles, r.clockHz),
		Mpps:        stats.Mpps(now.pkts-before.pkts, cycles, r.clockHz),
		Denied:      now.denied - before.denied,
		Reassembled: now.reassembled - before.reassembled,
		ClockHz:     r.clockHz,
	}
	for p := 0; p < 4; p++ {
		res.PerPort = append(res.PerPort, now.perPort[p]-before.perPort[p])
	}
	return res
}

func (r *Router) runFabricFor(cycles int64, gen TrafficGen) {
	n := r.fab.Config().Ports
	end := r.fab.Cycles + cycles
	for r.fab.Cycles < end {
		for p := 0; p < n; p++ {
			for r.fab.QueueLen(p) < 4 {
				pkt := gen(p)
				r.fab.Offer(p, pkt.Dst, pkt.SizeBytes/4)
			}
		}
		r.fab.StepQuantum()
	}
}

func (r *Router) snapFabric() snapshot {
	n := r.fab.Config().Ports
	s := snapshot{cycles: r.fab.Cycles, pkts: r.fab.TotalPkts(), words: r.fab.TotalWords()}
	for p := 0; p < n; p++ {
		s.perPort = append(s.perPort, r.fab.PktsOut[p])
		s.denied += r.fab.BlockedPerInput[p]
	}
	return s
}

func (r *Router) fabricDelta(before snapshot) Results {
	now := r.snapFabric()
	n := r.fab.Config().Ports
	cycles := now.cycles - before.cycles
	res := Results{
		Cycles:  cycles,
		Packets: now.pkts - before.pkts,
		Bytes:   (now.words - before.words) * 4,
		Gbps:    stats.Gbps((now.words-before.words)*4, cycles, r.clockHz),
		Mpps:    stats.Mpps(now.pkts-before.pkts, cycles, r.clockHz),
		Denied:  now.denied - before.denied,
		ClockHz: r.clockHz,
	}
	for p := 0; p < n; p++ {
		res.PerPort = append(res.PerPort, now.perPort[p]-before.perPort[p])
	}
	return res
}
