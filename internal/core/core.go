// Package core is the public face of the library: a Rotating Crossbar
// router on the Raw tiled architecture, runnable at two fidelity levels
// that share one allocation algorithm (internal/rotor):
//
//   - EngineCycle: the full cycle-level router of the paper — sixteen
//     simulated Raw tiles, generated static-switch programs, IP
//     validation, lookup in simulated DRAM (internal/router). Use it to
//     reproduce the paper's measured numbers.
//   - EngineFabric: a quantum-stepped model of just the switch fabric.
//     Use it for property studies, load sweeps, QoS/multicast/scaling
//     experiments, or whenever a million quanta per second matter more
//     than per-cycle truth.
//
// A minimal session:
//
//	r, _ := core.New(core.Options{})
//	r.Offer(0, core.Packet{Dst: 2, SizeBytes: 1024})
//	res := r.RunSaturated(100_000, core.UniformTraffic(1024, 1))
//	fmt.Println(res.Gbps, res.Mpps)
package core

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/rotor"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Engine selects the fidelity level.
type Engine int

// The two engines.
const (
	EngineCycle Engine = iota
	EngineFabric
)

// Options configures a router.
type Options struct {
	// Engine defaults to EngineCycle.
	Engine Engine
	// ClockHz defaults to the Raw prototype's 250 MHz.
	ClockHz float64
	// QuantumWords defaults to 256 (one 1,024-byte packet per quantum).
	QuantumWords int
	// Crypto enables the §8.3 computation-in-fabric payload cipher
	// (cycle engine only).
	Crypto    bool
	CryptoKey uint32
	// Weights, if set, are per-port token dwell counts for weighted
	// round-robin QoS (§8.7), honored by both engines.
	Weights []int
	// SecondNetwork adds the second static network (§5.3 ablation;
	// fabric engine only).
	SecondNetwork bool
	// Ports is the port count; the cycle engine supports exactly 4.
	Ports int
	// RouterConfig overrides the full cycle-engine configuration; zero
	// value uses defaults derived from the fields above.
	RouterConfig *router.Config
	// ChipEngine selects the cycle engine's chip stepping strategy:
	// raw.EngineRef (the reference interpreter, the zero value) or
	// raw.EngineFast (compiled route tables). It is purely a host
	// performance knob — results are bit-for-bit identical — and it
	// is ignored by the fabric engine. (Engine above picks the fidelity
	// level; ChipEngine picks how the cycle-true level is executed.)
	ChipEngine raw.Engine
}

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
	Engine      Engine
	Reassembled int64
}

// Router is the façade over both engines.
type Router struct {
	opt Options

	cyc *router.Router
	fab *rotor.Fabric

	id uint16
}

// New builds a router.
func New(opt Options) (*Router, error) {
	if opt.Ports == 0 {
		opt.Ports = 4
	}
	if opt.ClockHz == 0 {
		opt.ClockHz = 250e6
	}
	if opt.QuantumWords == 0 {
		opt.QuantumWords = 256
	}
	r := &Router{opt: opt}
	switch opt.Engine {
	case EngineCycle:
		if opt.Ports != 4 {
			return nil, fmt.Errorf("core: the cycle engine implements the paper's 4-port router; got %d ports (use EngineFabric for §8.5 scaling)", opt.Ports)
		}
		cfg := router.DefaultConfig()
		if opt.RouterConfig != nil {
			cfg = *opt.RouterConfig
		}
		cfg.ClockHz = opt.ClockHz
		cfg.QuantumWords = opt.QuantumWords
		cfg.Engine = opt.ChipEngine
		cfg.Crypto = opt.Crypto
		cfg.CryptoKey = opt.CryptoKey
		cfg.Weights = opt.Weights
		cyc, err := router.New(cfg)
		if err != nil {
			return nil, err
		}
		r.cyc = cyc
	case EngineFabric:
		fcfg := rotor.DefaultFabricConfig()
		fcfg.Ports = opt.Ports
		fcfg.QuantumWords = opt.QuantumWords
		fcfg.Weights = opt.Weights
		fcfg.SecondNetwork = opt.SecondNetwork
		r.fab = rotor.NewFabric(fcfg)
	default:
		return nil, fmt.Errorf("core: unknown engine %d", opt.Engine)
	}
	return r, nil
}

// Cycle returns the underlying cycle-level router, or nil for the fabric
// engine. It exposes the full instrumented surface (tile traces, chip
// internals) for advanced use.
func (r *Router) Cycle() *router.Router { return r.cyc }

// Fabric returns the underlying quantum-stepped fabric, or nil.
func (r *Router) Fabric() *rotor.Fabric { return r.fab }

// Offer enqueues one packet at input port p.
func (r *Router) Offer(p int, pkt Packet) {
	if pkt.SizeBytes < ip.HeaderBytes {
		pkt.SizeBytes = ip.HeaderBytes
	}
	if r.fab != nil {
		r.fab.Offer(p, pkt.Dst, pkt.SizeBytes/4)
		return
	}
	r.id++
	src := pkt.SrcIP
	if src == 0 {
		src = traffic.PortAddr(p, uint32(r.id))
	}
	dst := pkt.DstIP
	if dst == 0 {
		dst = traffic.PortAddr(pkt.Dst, uint32(r.id)*2654435761)
	}
	ipPkt := ip.NewPacket(src, dst, 64, pkt.SizeBytes, r.id)
	r.cyc.OfferPacket(p, &ipPkt)
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

type snapshot struct {
	cycles      int64
	pkts        int64
	words       int64
	perPort     []int64
	denied      int64
	reassembled int64
}

func (r *Router) runCycleFor(cycles int64, gen TrafficGen) {
	const step = 200
	for c := int64(0); c < cycles; c += step {
		for p := 0; p < 4; p++ {
			for r.cyc.InputBacklogWords(p) < 4096 {
				r.Offer(p, gen(p))
			}
		}
		r.cyc.Run(step)
	}
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
		Gbps:        stats.Gbps((now.words-before.words)*4, cycles, r.opt.ClockHz),
		Mpps:        stats.Mpps(now.pkts-before.pkts, cycles, r.opt.ClockHz),
		Denied:      now.denied - before.denied,
		Reassembled: now.reassembled - before.reassembled,
		ClockHz:     r.opt.ClockHz,
		Engine:      EngineCycle,
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
		Gbps:    stats.Gbps((now.words-before.words)*4, cycles, r.opt.ClockHz),
		Mpps:    stats.Mpps(now.pkts-before.pkts, cycles, r.opt.ClockHz),
		Denied:  now.denied - before.denied,
		ClockHz: r.opt.ClockHz,
		Engine:  EngineFabric,
	}
	for p := 0; p < n; p++ {
		res.PerPort = append(res.PerPort, now.perPort[p]-before.perPort[p])
	}
	return res
}
