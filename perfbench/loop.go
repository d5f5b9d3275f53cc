package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/traffic"
)

// loopSystem is a router or a fabric under the closed loop: the port
// API router.Router and cluster.Fabric share, and the few things the
// loop does differently on each.
type loopSystem interface {
	InputBacklogWords(p int) int
	OfferPacket(p int, pkt *ip.Packet)
	DrainOutput(p int) ([]ip.Packet, error)
	OutputWords(p int) int64
	Run(n int64)
	Cycle() int64

	// conserve checks the system's conservation identities, given the
	// packets offered and drained so far.
	conserve(o *oracle, offered, drained int64)
	// state is the part of the prefix summary beyond the per-egress
	// ledgers: router counters or the fabric fingerprint.
	state() string
	// counters reads the public counters the per-layer metrics are made
	// of, summed over chips.
	counters() counters
	// chips is the number of chips stepped per cycle.
	chips() int
	// perLayer sets the system's own per-layer metrics over the traced
	// stretch st.
	perLayer(e *env, st *stretch)
}

// Every closed-loop input is held at a 4096-word backlog of 1,024-byte
// packets.
const (
	loopBacklog  = 4096
	loopPktBytes = 1024
)

// closedLoop runs a router or fabric in a closed loop: every chunk it
// tops every input up to its backlog, runs a fixed number of cycles,
// then drains, parses and checks every egress. The drain every chunk is
// what keeps host memory flat over a long run (the egress sinks hold 12
// bytes per undrained word).
type closedLoop struct {
	sys     loopSystem
	ports   int
	dst     func(p int) int // the egress input p sends to
	rng     *traffic.RNG
	ledgers []ledger
	offered int64
	drained int64
}

func newClosedLoop(sys loopSystem, ports int, dst func(int) int, seed uint64) *closedLoop {
	return &closedLoop{sys: sys, ports: ports, dst: dst, rng: traffic.NewRNG(seed), ledgers: newLedgers(ports)}
}

// offer tops every input up to the backlog and returns the packets
// offered. The seed salts the addresses and packet ids, and with them
// every payload.
func (l *closedLoop) offer() int {
	n := 0
	for p := 0; p < l.ports; p++ {
		for l.sys.InputBacklogWords(p) < loopBacklog {
			salt := uint32(l.rng.Uint64())
			pkt := ip.NewPacket(traffic.PortAddr(p, salt), traffic.PortAddr(l.dst(p), salt>>8), 64, loopPktBytes, uint16(salt>>16))
			l.sys.OfferPacket(p, &pkt)
			n++
		}
	}
	l.offered += int64(n)
	return n
}

// drain drains every egress, checks each packet, folds it into the
// per-egress ledgers when hash is set, and returns the packets.
func (l *closedLoop) drain(o *oracle, hash bool) int {
	n := 0
	for p := 0; p < l.ports; p++ {
		pkts, err := l.sys.DrainOutput(p)
		o.checkErr(err, fmt.Sprintf("egress %d parse", p))
		for i := range pkts {
			verifyPacket(o, p, &pkts[i], loopPktBytes)
			if hash {
				l.ledgers[p].add(&pkts[i])
			}
		}
		n += len(pkts)
	}
	l.drained += int64(n)
	return n
}

// egressWords is the words delivered at the external egress so far.
func (l *closedLoop) egressWords() int64 {
	var w int64
	for p := 0; p < l.ports; p++ {
		w += l.sys.OutputWords(p)
	}
	return w
}

// summary is the state the reference engine must reproduce exactly at
// the end of the prefix: the per-egress ledgers plus the system's state.
func (l *closedLoop) summary() string {
	var b strings.Builder
	for p, g := range l.ledgers {
		fmt.Fprintf(&b, "e%d:%d/%d/%016x ", p, g.pkts, g.words, g.digest)
	}
	b.WriteString(l.sys.state())
	return b.String()
}

// counters are the public counters of one episode.
type counters struct {
	macroWindows, macroCycles int64
	disarms                   [raw.NumMacroCauses]int64
	denied, frags             int64
	// Fabric only: frames that left the trunk framers, and words
	// delivered across the bisection cut.
	trunkFrames, bisectionWords int64
}

// add folds one router's Stats into c.
func (c *counters) add(st router.StatsSnapshot) {
	c.macroWindows += st.MacroWindows
	c.macroCycles += st.MacroCycles
	for i, n := range st.MacroDisarms {
		c.disarms[i] += n
	}
	for p := 0; p < 4; p++ {
		c.denied += st.Denied[p]
		c.frags += st.FragsSent[p]
	}
}

func (c *counters) addAll(b counters) {
	c.macroWindows += b.macroWindows
	c.macroCycles += b.macroCycles
	for i := range c.disarms {
		c.disarms[i] += b.disarms[i]
	}
	c.denied += b.denied
	c.frags += b.frags
	c.trunkFrames += b.trunkFrames
	c.bisectionWords += b.bisectionWords
}

// loopConfig fixes a closed-loop workload's cycle geometry. Every
// episode builds a fresh system and runs it for the same number of
// cycles, so each episode is the same simulated work and host memory is
// bounded by the episode, not by how long the run lasts.
type loopConfig struct {
	chunk   int64  // cycles per chunk (one offer/run/drain round)
	prefix  int64  // cycles of every episode checked against the reference engine
	episode int64  // cycles per episode; sim_gbps is taken over it
	runName string // span name of the run call ("raw.run", "cluster.run")
}

// stretch is what a series of episodes measured.
type stretch struct {
	episodes           int
	cycles, chipCycles int64
	cpu                time.Duration // process CPU time of the episode loops, scaled to the reference host
	rawCPU             time.Duration // the same, unscaled
	chunkMS            []float64     // driving-thread CPU time per chunk, scaled to the reference host
	rawChunkMS         []float64     // the same, unscaled
	calib              calibLog
	pktsOffered        int64
	pktsDrained        int64
	allocBytes         uint64
	egressWords        int64 // per episode (the same in every one)
	c                  counters
	last               loopSystem // the last episode's system
}

// rate is chip-cycles per process CPU second on the reference host.
func (st *stretch) rate() float64 {
	return float64(st.chipCycles) / st.cpu.Seconds()
}

// runChunk runs one offer/run/drain round under the tracer. The offer
// and drain spans hold the benchmark's own packet generation and checks
// as well as its calls into the port API, so they are named after the
// benchmark; the router's share of them comes from the CPU profile.
func runChunk(l *closedLoop, cfg *loopConfig, o *oracle, tr *tracer, hash bool) (offered, drained int) {
	root := tr.begin("bench.chunk", -1)
	tr.do("bench.offer", root, func(int32) { offered = l.offer() })
	tr.do(cfg.runName, root, func(int32) { l.sys.Run(cfg.chunk) })
	tr.do("bench.drain", root, func(int32) { drained = l.drain(o, hash) })
	l.sys.conserve(o, l.offered, l.drained)
	tr.end(root)
	tr.count("bench.offer.pkts", int64(offered))
	tr.count(cfg.runName+".cycles", cfg.chunk)
	tr.count("bench.drain.pkts", int64(drained))
	return offered, drained
}

// runPrefix drives l from cycle 0 to cfg.prefix with ledgers on and
// returns its summary there.
func runPrefix(l *closedLoop, cfg *loopConfig, o *oracle) string {
	for l.sys.Cycle() < cfg.prefix {
		runChunk(l, cfg, o, nil, true)
	}
	return l.summary()
}

// runEpisodes runs episodes for d of wall time (at least one), checking
// every episode's prefix against want and recording per-chunk CPU time,
// process CPU time, allocation and the live heap at each episode's end.
func runEpisodes(e *env, cfg *loopConfig, build func(ref bool) (*closedLoop, error), want string,
	tr *tracer, d time.Duration, mem *memSampler) (*stretch, error) {
	st := &stretch{}
	start := time.Now()
	for st.episodes == 0 || time.Since(start) < d {
		st.last = nil // one system alive at a time
		l, err := build(false)
		if err != nil {
			return nil, err
		}
		var cal *calibrator
		if !e.trace {
			cal = &calibrator{}
		}
		var chunks []float64
		a0, cpu0 := mem.allocated(), processCPU()
		for l.sys.Cycle() < cfg.episode {
			hash := l.sys.Cycle() < cfg.prefix
			t := threadCPU()
			offered, drained := runChunk(l, cfg, e.oracle, tr, hash)
			d := threadCPU() - t
			chunks = append(chunks, ms(d))
			cal.after(d)
			st.pktsOffered += int64(offered)
			st.pktsDrained += int64(drained)
			if hash && l.sys.Cycle() >= cfg.prefix {
				got := l.summary()
				e.oracle.check(got == want, "episode prefix of %d cycles differs from the reference engine:\n  fast %s\n  ref  %s", cfg.prefix, got, want)
			}
		}
		cpu := processCPU() - cpu0 - cal.kernelTime()
		f := cal.factor()
		st.rawCPU += cpu
		st.cpu += time.Duration(float64(cpu) * f)
		for _, c := range chunks {
			st.rawChunkMS = append(st.rawChunkMS, c)
			st.chunkMS = append(st.chunkMS, c*f)
		}
		st.calib.add(cal)
		st.allocBytes += mem.allocated() - a0
		mem.settle()
		cycle := l.sys.Cycle()
		e.oracle.check(cycle == cfg.episode, "episode ended at cycle %d, want %d", cycle, cfg.episode)
		st.cycles += cycle
		st.chipCycles += cycle * int64(l.sys.chips())
		st.egressWords = l.egressWords()
		st.c.addAll(l.sys.counters())
		st.episodes++
		st.last = l.sys
	}
	return st, nil
}

// driveClosed is the shared body of the closed-loop workloads: set-up
// samples, the reference-engine prefix, then episodes for the run's time
// (in a traced run, untraced episodes, traced and profiled ones, then
// untraced ones again). build constructs a fresh system on the fast or
// the reference engine.
func driveClosed(e *env, cfg *loopConfig, build func(ref bool) (*closedLoop, error)) error {
	setup, err := setupSamples(e.wl.name, e.seed)
	if err != nil {
		return err
	}
	e.set("setup_s", median(setup))

	want, err := refPrefix(cfg, e.oracle, build)
	if err != nil {
		return err
	}
	fmt.Printf("reference prefix: %d cycles, %s\n", cfg.prefix, want)

	mem := newMemSampler()
	if !e.trace {
		st, err := runEpisodes(e, cfg, build, want, nil, e.seconds, mem)
		if err != nil {
			return err
		}
		e.set("sim_mcycles_per_s", st.rate()/1e6)
		e.set("slice_ms_p50", median(st.chunkMS))
		e.set("slice_ms_p95", quantile(st.chunkMS, 0.95))
		e.set("alloc_b_per_cycle", float64(st.allocBytes)/float64(st.chipCycles))
		e.set("peak_heap_mb", mem.peakMB())
		e.set("sim_gbps", float64(st.egressWords*32)/(float64(cfg.episode)/raw.DefaultClockHz)/1e9)
		fmt.Printf("timed: %d episodes of %d cycles in %d-cycle chunks, %.2fs CPU (%.2fs scaled); %s\n",
			st.episodes, cfg.episode, cfg.chunk, st.rawCPU.Seconds(), st.cpu.Seconds(), &st.calib)
		fmt.Printf("unscaled: sim_mcycles_per_s %.6g slice_ms_p50 %.6g slice_ms_p95 %.6g\n",
			float64(st.chipCycles)/st.rawCPU.Seconds()/1e6, median(st.rawChunkMS), quantile(st.rawChunkMS, 0.95))
		return nil
	}

	// Untraced episodes before and after the traced ones, so slow drift
	// over the run cancels out of the tracing overhead.
	before, err := runEpisodes(e, cfg, build, want, nil, e.seconds/5, mem)
	if err != nil {
		return err
	}
	prof, err := startProfile(e.wl.name, e.seed)
	if err != nil {
		return err
	}
	traced, err := runEpisodes(e, cfg, build, want, e.tracer, e.seconds*3/5, mem)
	if err != nil {
		return err
	}
	ps, err := prof.stop()
	if err != nil {
		return err
	}
	after, err := runEpisodes(e, cfg, build, want, nil, e.seconds/5, mem)
	if err != nil {
		return err
	}
	plain := &stretch{chipCycles: before.chipCycles + after.chipCycles, cpu: before.cpu + after.cpu}
	e.set("trace.overhead", plain.rate()/traced.rate()-1)
	if err := setProfileShares(e, ps); err != nil {
		return err
	}
	// The profile covers the traced episodes only.
	setEngineCosts(e, ps.funcNS, traced.chipCycles, traced.pktsOffered, traced.pktsDrained)
	c := traced.c
	e.setMacro(traced.chipCycles, c.macroWindows, c.macroCycles, c.disarms)
	e.set("router.denied_ratio", ratio(float64(c.denied), float64(c.denied+c.frags)))
	// Checkpoint recording is off in the closed-loop workloads.
	e.set("router.ckpt_b_per_cycle", 0)
	traced.last.perLayer(e, traced)
	fmt.Printf("traced: %d episodes of %d cycles, %.2fs CPU\n", traced.episodes, cfg.episode, traced.cpu.Seconds())
	return e.tracer.finish(e.wl.name, e.seed)
}

// setEngineCosts reports the profiled CPU time under Chip.Run per
// simulated chip-cycle and under Router.OfferPacket and
// Router.DrainOutput per packet offered and drained. fnNS is the
// cumulative CPU time per watched function over the stretch the counts
// cover. Every workload reads these three from the profile, so each
// means the same on all of them.
func setEngineCosts(e *env, fnNS map[string]int64, chipCycles, offered, drained int64) {
	e.set("raw.run_ns_per_cycle", ratio(float64(fnNS[fnChipRun]), float64(chipCycles)))
	e.set("router.offer_ns_per_pkt", ratio(float64(fnNS[fnOffer]), float64(offered)))
	e.set("router.drain_ns_per_pkt", ratio(float64(fnNS[fnDrain]), float64(drained)))
}

// refPrefix runs the prefix on the reference engine and returns its
// summary; the reference system is garbage once it returns.
func refPrefix(cfg *loopConfig, o *oracle, build func(ref bool) (*closedLoop, error)) (string, error) {
	ref, err := build(true)
	if err != nil {
		return "", err
	}
	return runPrefix(ref, cfg, o), nil
}

// setProfileShares reports the profile-derived per-layer CPU shares and
// the cumulative shares of the raw engine's hot functions. It fails if
// a function named by string draws no samples: each runs for a tenth or
// more of every workload's time, so that means it was renamed (or the
// run was far too short), and the run fails rather than report 0.
func setProfileShares(e *env, ps *profileSummary) error {
	for _, fn := range []string{fnMacroStep, fnMaybeCommit} {
		if ps.funcNS[fn] == 0 {
			return fmt.Errorf("CPU profile has no samples under %s", fn)
		}
	}
	for _, l := range []string{"raw", "router", "cluster", "serve", "traffic", "telemetry", "runtime"} {
		if absentLayer(e.wl, l) {
			continue
		}
		e.set(l+".cpu_share", ps.layerShare(l))
	}
	e.set("raw.step_share", ps.funcShare(fnChipStep))
	e.set("raw.macro_share", ps.funcShare(fnMacroStep))
	e.set("raw.commit_share", ps.funcShare(fnMaybeCommit))
	fmt.Printf("profile: %.2fs CPU; self share per layer:", float64(ps.totalNS)/1e9)
	for _, l := range sortedKeys(ps.layerNS) {
		fmt.Printf(" %s %.3f", l, ps.layerShare(l))
	}
	fmt.Println()
	return nil
}

func absentLayer(wl *workload, layer string) bool {
	for _, l := range wl.absent {
		if l == layer {
			return true
		}
	}
	return false
}
