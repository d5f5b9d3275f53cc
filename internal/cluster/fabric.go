package cluster

import (
	"fmt"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config configures an N-chip fabric.
type Config struct {
	// Topology declares the chip count and wiring; see Spec.
	Topology Spec
	// Router is the per-chip configuration template. The fabric owns the
	// fields that cannot be shared across chips: Table is compiled per
	// chip from the topology (must be nil), and Events/Metrics templates
	// must be nil too — set Config.Metrics to arm per-chip collectors and
	// read chip planes through ChipEvents/ChipTelemetry. Multicast and
	// Crypto are rejected: both would rewrite the inter-chip word streams
	// (group fanout, payload ciphering) that trunk neighbors parse as
	// plain IP packets.
	Router router.Config
	// Metrics arms a telemetry collector on every chip.
	Metrics bool
	// Faults holds optional per-chip fault schedules, applied to chip k's
	// original incarnation (a replacement chip built by RestoreChip starts
	// fault-free — the schedule's cycle origin died with the old chip).
	// Chip-level controls (killchip@/restorechip@/killtrunk@/restoretrunk@)
	// are fabric-wide; feed them through ApplySchedule instead.
	Faults map[int]*fault.Schedule
	// Heal arms the fault-healing plane: adaptive rerouting around dead
	// chips and trunks, trunk-level retransmission, and flow-tagged
	// duplicate suppression at egress. See HealConfig.
	Heal HealConfig
}

// chipSlot is one chip position: the live router instance plus the
// fabric-level lifecycle state that survives chip replacement.
type chipSlot struct {
	r      *router.Router
	events *trace.EventLog
	dead   bool
	// epoch counts instances in this slot (0 = original); bornAt is the
	// fabric cycle the current instance was constructed at.
	epoch  int
	bornAt int64
	// wordsIn/wordsOut are the end-to-end ledger's per-instance flow
	// counts: words pushed into this instance's pins (external offers,
	// trunk deliveries, ARQ re-drives) and words drained off them toward
	// trunks. Reset with the instance on RestoreChip.
	wordsIn, wordsOut int64
}

// trunkDir is one direction of one trunk: the packet framer between the
// source chip's egress pins and the destination chip's ingress pins,
// plus the direction's conservation counters. The framer models the
// store-and-forward SERDES framing of a real chip-to-chip link: it holds
// words until a whole IP packet is buffered and delivers packets
// atomically, so a chip killed mid-stream leaves its neighbor at a clean
// packet boundary (the partial packet is dropped and counted) instead of
// desynchronizing its ingress parser.
type trunkDir struct {
	buf []uint32
	// drained counts words taken off the source pins; delivered words
	// pushed onto the destination pins; dropped words discarded (dead
	// endpoint, or a frame that failed to parse); retrans words handed to
	// the ARQ plane's custody. The direction conserves words:
	// drained == delivered + dropped + retrans + len(buf), checked by
	// ConservationError.
	drained, delivered, dropped, retrans int64
	// frames counts whole frames that left the framer (delivered or to
	// ARQ custody); acked counts frames confirmed onto destination pins
	// (direct delivery, or an ARQ re-drive after a detour).
	frames, acked int64
}

// trunkState is one trunk's two directions: dir[0] carries A->B,
// dir[1] B->A. A dead trunk carries nothing in either direction until
// RestoreTrunk re-lights it.
type trunkState struct {
	Trunk
	dead bool
	dir  [2]trunkDir
}

// sliceCycles is the lockstep granularity: every chip advances this many
// cycles, then the fabric bridges all trunk pins — the small elastic
// buffer a real inter-chip link has. Scheduled chip controls fire
// exactly at their cycle (Run caps a slice short when a control is due),
// so a run is deterministic for any Run call pattern.
const sliceCycles = 64

// Fabric is an N-chip switch: Topology-many 4-port routers wired by
// trunks, stepped in lockstep slices, presenting Externals()-many
// external ports with fabric-wide addressing (external port e owns
// (10+e).0.0.0/8). It carries the single-router operability surface
// across the chip boundary: whole-chip kill and re-admission (scheduled
// through the fault grammar), per-trunk accounting, and one checkpoint
// blob for all N chips.
type Fabric struct {
	spec   Spec
	cfg    Config
	chips  []chipSlot
	trunks []trunkState
	cycle  int64

	// Scheduled chip controls, sorted by start cycle; nextCtl is the
	// firing cursor (controls fire in order, so one index serializes the
	// fired-set in checkpoints).
	controls []fault.Event
	nextCtl  int

	// events is the fabric-level log: chip kills and re-admissions, with
	// the chip index in the Port field.
	events trace.EventLog

	// extDropped counts words offered at an external port while its chip
	// was dead — the fabric-level analog of a dead port's line drops.
	extDropped []int64

	// Healing plane (see heal.go). The ledger counters below the config
	// are maintained whether or not healing is enabled, so DeliveryError
	// audits plain runs too; rerouting, ARQ, and flow tagging engage only
	// when heal.Enabled.
	heal      HealConfig
	healEpoch int64
	reroutes  int64
	// routePorts caches each chip's installed next-hop assignment (the
	// change detector for table swaps); reach is the live-chip
	// reachability matrix of the current heal epoch.
	routePorts [][]int
	reach      [][]bool
	partition  *PartitionError

	// ARQ: frames in retransmit custody, the per-(trunk,dir) pending
	// window, and the monotone frame sequence.
	arq           []arqFrame
	arqPend       map[[2]int]int
	arqSeq        int64
	retransFrames int64
	retransWords  int64

	// End-to-end word ledger.
	injected      int64
	retiredExtOut int64 // external output words of retired (killed) chip instances
	dupWords      int64
	droppedCause  [numDropCauses]int64

	// Flow tagging: per-flow ingress sequence and egress dup windows.
	flowSeq     map[uint32]uint32
	egressFlows map[uint32]*egressFlow
}

// NewFabric validates the spec and builds the N chips, each with its
// topology-compiled route table.
func NewFabric(cfg Config) (*Fabric, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	rc := cfg.Router
	if rc.ClockHz == 0 {
		// Same convention as router.New: an unset template selects the
		// paper's configuration wholesale.
		rc = router.DefaultConfig()
		cfg.Router = rc
	}
	switch {
	case rc.Table != nil:
		return nil, fmt.Errorf("cluster: fabric compiles per-chip tables; Config.Router.Table must be nil")
	case rc.Events != nil:
		return nil, fmt.Errorf("cluster: an event log cannot be shared across chips; leave Config.Router.Events nil and use ChipEvents")
	case rc.Metrics != nil:
		return nil, fmt.Errorf("cluster: a collector cannot be shared across chips; leave Config.Router.Metrics nil and set Config.Metrics")
	case rc.Multicast:
		return nil, fmt.Errorf("cluster: fabric does not support Multicast (group fanout would corrupt trunk streams)")
	case rc.Crypto:
		return nil, fmt.Errorf("cluster: fabric does not support Crypto (ciphered payloads would corrupt trunk streams)")
	}
	f := &Fabric{
		spec:        cfg.Topology,
		cfg:         cfg,
		chips:       make([]chipSlot, cfg.Topology.NumChips()),
		extDropped:  make([]int64, cfg.Topology.Externals()),
		heal:        cfg.Heal.withDefaults(),
		arqPend:     make(map[[2]int]int),
		flowSeq:     make(map[uint32]uint32),
		egressFlows: make(map[uint32]*egressFlow),
	}
	for _, t := range cfg.Topology.Trunks() {
		f.trunks = append(f.trunks, trunkState{Trunk: t})
	}
	f.routePorts = make([][]int, len(f.chips))
	for k := range f.chips {
		if err := f.buildChip(k, 0); err != nil {
			return nil, err
		}
		f.routePorts[k] = f.staticPorts(k)
	}
	return f, nil
}

// buildChip constructs the chip for slot k (epoch 0 = original, else a
// replacement). Construction is a pure function of the fabric config, so
// a checkpoint restore rebuilds replacements identically.
func (f *Fabric) buildChip(k, epoch int) error {
	rc := f.cfg.Router
	rc.Table = f.spec.chipTable(k)
	ev := &trace.EventLog{}
	rc.Events = ev
	if f.cfg.Metrics {
		rc.Metrics = telemetry.New(telemetry.Config{})
	}
	r, err := router.New(rc)
	if err != nil {
		return fmt.Errorf("cluster: chip %d: %w", k, err)
	}
	if sched := f.cfg.Faults[k]; sched != nil && epoch == 0 {
		r.Chip.InstallFaults(fault.NewInjector(sched, r.Chip.NumTiles()))
		for _, ctl := range sched.Controls() {
			switch ctl.Kind {
			case fault.KindRestore:
				r.ScheduleRestore(ctl.Start, ctl.Tile)
			case fault.KindReprobe:
				r.ScheduleReprobe(ctl.Start, ctl.Tile)
			}
		}
	}
	f.chips[k] = chipSlot{r: r, events: ev, epoch: epoch, bornAt: f.cycle}
	return nil
}

// Spec returns the fabric's topology.
func (f *Fabric) Spec() Spec { return f.spec }

// Cycle returns the fabric cycle count (every live chip has stepped this
// many cycles since its bornAt).
func (f *Fabric) Cycle() int64 { return f.cycle }

// Chip returns slot k's current router instance (tests and telemetry;
// the instance changes when RestoreChip replaces a killed chip).
func (f *Fabric) Chip(k int) *router.Router { return f.chips[k].r }

// ChipDead reports whether slot k is currently killed.
func (f *Fabric) ChipDead(k int) bool { return f.chips[k].dead }

// ChipEpoch returns slot k's instance count (0 = original chip).
func (f *Fabric) ChipEpoch(k int) int { return f.chips[k].epoch }

// Events returns the fabric-level event log (chip kills and restores;
// the Port field carries the chip index).
func (f *Fabric) Events() *trace.EventLog { return &f.events }

// ChipEvents returns chip k's recovery event log (current instance).
func (f *Fabric) ChipEvents(k int) *trace.EventLog { return f.chips[k].events }

// ApplySchedule registers the schedule's fabric-level chip controls
// (killchip@/restorechip@). Call once, before Run; the controls fire
// exactly at their start cycles.
func (f *Fabric) ApplySchedule(s *fault.Schedule) {
	f.controls = append(f.controls, s.ChipControls()...)
}

// OfferPacket enqueues a packet at fabric external port e. Packets
// offered while e's chip is dead are dropped and counted (ExtDropped),
// exactly as a dead single-chip port drops line words. With healing
// enabled, packets to a dead or partitioned-away destination are
// refused at ingress with a counted cause, and admitted packets are
// stamped with their flow's sequence number for egress duplicate
// suppression (the caller's packet is not mutated).
func (f *Fabric) OfferPacket(e int, pkt *ip.Packet) {
	chip, local := f.spec.ExtPort(e)
	n := int64(pkt.LenWords())
	f.injected += n
	if f.chips[chip].dead {
		f.extDropped[e] += n
		f.droppedCause[dropDeadPort] += n
		return
	}
	if f.healOn() {
		if dstExt := f.extOfAddr(uint32(pkt.Header.Dst)); dstExt >= 0 {
			dc, _ := f.spec.ExtPort(dstExt)
			switch {
			case f.chips[dc].dead:
				f.droppedCause[dropDestDead] += n
				return
			case !f.reachable(chip, dc):
				f.droppedCause[dropUnreachable] += n
				return
			}
			key := flowKey(pkt.Header.Src, dstExt)
			stamped := *pkt
			stamped.Header.ID = uint16(f.flowSeq[key])
			f.flowSeq[key]++
			pkt = &stamped
		}
	}
	f.chips[chip].wordsIn += n
	f.chips[chip].r.OfferPacket(local, pkt)
}

// InputBacklogWords reports external port e's line buffer depth.
func (f *Fabric) InputBacklogWords(e int) int {
	chip, local := f.spec.ExtPort(e)
	return f.chips[chip].r.InputBacklogWords(local)
}

// DrainOutput parses packets delivered at fabric external port e. With
// healing enabled, duplicates (a frame delivered directly and again via
// retransmission) are suppressed through each flow's sliding window and
// counted, so callers observe each injected packet at most once.
func (f *Fabric) DrainOutput(e int) ([]ip.Packet, error) {
	chip, local := f.spec.ExtPort(e)
	pkts, err := f.chips[chip].r.DrainOutput(local)
	if !f.healOn() || len(pkts) == 0 {
		return pkts, err
	}
	kept := pkts[:0]
	for _, p := range pkts {
		key := flowKey(p.Header.Src, e)
		fl := f.egressFlows[key]
		if fl == nil {
			fl = &egressFlow{}
			f.egressFlows[key] = fl
		}
		if fl.dup(p.Header.ID) {
			f.dupWords += int64(p.LenWords())
			continue
		}
		kept = append(kept, p)
	}
	return kept, err
}

// OutputWords returns the words ever emitted at external port e by the
// chip's current instance.
func (f *Fabric) OutputWords(e int) int64 {
	chip, local := f.spec.ExtPort(e)
	return f.chips[chip].r.OutputWords(local)
}

// ExtDropped returns the words dropped at external port e while its chip
// was dead.
func (f *Fabric) ExtDropped(e int) int64 { return f.extDropped[e] }

// Run advances the fabric n cycles: all live chips step in lockstep
// slices, trunk pins are bridged at every slice boundary, and scheduled
// chip controls fire exactly at their start cycle (a slice is cut short
// when a control is due, so the trace is independent of how Run calls
// partition the cycles).
func (f *Fabric) Run(n int64) {
	end := f.cycle + n
	for f.cycle < end {
		f.fireControls()
		step := int64(sliceCycles)
		if end-f.cycle < step {
			step = end - f.cycle
		}
		if next := f.nextControlCycle(); next >= 0 && next-f.cycle < step {
			step = next - f.cycle
			if step == 0 {
				// A control at the current cycle already fired above.
				continue
			}
		}
		for k := range f.chips {
			if !f.chips[k].dead {
				f.chips[k].r.Run(step)
			}
		}
		f.cycle += step
		f.bridge()
		f.processARQ()
	}
	f.fireControls()
}

// nextControlCycle returns the next unfired control's start cycle, or -1.
func (f *Fabric) nextControlCycle() int64 {
	if f.nextCtl >= len(f.controls) {
		return -1
	}
	return f.controls[f.nextCtl].Start
}

// fireControls applies every scheduled control due at or before the
// current cycle. Rejected controls (killing a dead chip, restoring a
// live one) are skipped silently so a fuzzed schedule cannot wedge a run.
func (f *Fabric) fireControls() {
	for f.nextCtl < len(f.controls) && f.controls[f.nextCtl].Start <= f.cycle {
		ctl := f.controls[f.nextCtl]
		f.nextCtl++
		if ctl.Tile >= len(f.chips) {
			continue
		}
		switch ctl.Kind {
		case fault.KindKillChip:
			if !f.chips[ctl.Tile].dead {
				f.KillChip(ctl.Tile)
			}
		case fault.KindRestoreChip:
			if f.chips[ctl.Tile].dead {
				if err := f.RestoreChip(ctl.Tile); err != nil {
					panic(err) // construction from a validated config cannot fail
				}
			}
		case fault.KindKillTrunk:
			if f.findTrunk(ctl.Tile, ctl.Chip2, false) >= 0 {
				f.KillTrunk(ctl.Tile, ctl.Chip2)
			}
		case fault.KindRestoreTrunk:
			if f.findTrunk(ctl.Tile, ctl.Chip2, true) >= 0 {
				f.RestoreTrunk(ctl.Tile, ctl.Chip2)
			}
		}
	}
}

// KillChip removes chip k from the fabric: it stops stepping, its trunk
// links go silent, and its external ports drop offered traffic until
// RestoreChip. The chip's in-flight words are settled against the
// ledger, each under a counted cause: complete frames it had already
// committed to a live trunk still deliver (the link's store-and-forward
// buffer survives the card pull) or — with healing — move to retransmit
// custody; everything else (partial frames, words resident inside the
// chip) is dropped and counted as chip-loss. Direct calls between Run
// calls are honored but are not replayed by checkpoints — schedule
// killchip@ controls in runs that will be checkpointed.
func (f *Fabric) KillChip(k int) error {
	if k < 0 || k >= len(f.chips) {
		return fmt.Errorf("cluster: no chip %d", k)
	}
	if f.chips[k].dead {
		return fmt.Errorf("cluster: chip %d already dead", k)
	}
	f.chips[k].dead = true
	for ti := range f.trunks {
		t := &f.trunks[ti]
		for d := 0; d < 2; d++ {
			src, srcPort, dst, _ := t.endpoints(d)
			if src != k && dst != k {
				continue
			}
			td := &t.dir[d]
			if src == k {
				// Words the dead chip had already pushed to its egress
				// pins join the framer; complete frames still deliver to a
				// live neighbor over a live trunk, the partial tail dies
				// with its source.
				words, _ := f.chips[k].r.OutputSink(srcPort).Drain()
				td.drained += int64(len(words))
				f.chips[k].wordsOut += int64(len(words))
				for _, w := range words {
					td.buf = append(td.buf, uint32(w))
				}
				if !t.dead && !f.chips[dst].dead {
					f.pumpDir(t, d)
				}
				n := int64(len(td.buf))
				td.dropped += n
				f.droppedCause[dropChipLoss] += n
				td.buf = td.buf[:0]
			} else {
				// Frames held in the framer toward the dead chip: with
				// healing, complete frames move to retransmit custody and
				// re-deliver over the healed path (the partial tail stays
				// held until its source completes it); without healing
				// they drop, counted — not silently zeroed.
				if f.healOn() {
					f.framesToARQ(ti, t, d)
				} else {
					n := int64(len(td.buf))
					td.dropped += n
					f.droppedCause[dropChipLoss] += n
					td.buf = td.buf[:0]
				}
			}
		}
	}
	// Retire the instance against the ledger: its external deliveries
	// stand; words still inside it are lost with the chip.
	ext := f.chipExtOut(k)
	f.retiredExtOut += ext
	if res := f.chips[k].wordsIn - f.chips[k].wordsOut - ext; res > 0 {
		f.droppedCause[dropChipLoss] += res
	}
	f.events.Add(f.cycle, k, trace.EvChipKill)
	f.reheal()
	return nil
}

// RestoreChip re-admits a killed chip with a freshly constructed
// replacement (same table, same config, epoch+1). The replacement's
// counters, caches, and recovery state start cold, exactly like a field
// card swap; in-flight state of the old instance is already accounted as
// dropped.
func (f *Fabric) RestoreChip(k int) error {
	if k < 0 || k >= len(f.chips) {
		return fmt.Errorf("cluster: no chip %d", k)
	}
	if !f.chips[k].dead {
		return fmt.Errorf("cluster: chip %d is not dead", k)
	}
	if err := f.buildChip(k, f.chips[k].epoch+1); err != nil {
		return err
	}
	// The replacement carries the static table; the heal epoch below
	// re-derives and installs the healed one if the topology still has
	// other failures.
	f.routePorts[k] = f.staticPorts(k)
	f.events.Add(f.cycle, k, trace.EvChipRestore)
	f.reheal()
	return nil
}

// endpoints resolves direction d of a trunk: d=0 flows A->B, d=1 B->A.
func (t *trunkState) endpoints(d int) (src, srcPort, dst, dstPort int) {
	if d == 0 {
		return t.A, t.APort, t.B, t.BPort
	}
	return t.B, t.BPort, t.A, t.APort
}

// bridge moves trunk words after a slice: each direction drains the
// source chip's egress pins into the framer and pushes every completed
// packet into the destination chip's ingress pins.
func (f *Fabric) bridge() {
	for ti := range f.trunks {
		t := &f.trunks[ti]
		for d := 0; d < 2; d++ {
			f.bridgeDir(ti, t, d)
		}
	}
}

func (f *Fabric) bridgeDir(ti int, t *trunkState, d int) {
	src, srcPort, dst, _ := t.endpoints(d)
	td := &t.dir[d]
	if f.chips[src].dead {
		return // silenced at KillChip; nothing accumulates
	}
	words, _ := f.chips[src].r.OutputSink(srcPort).Drain()
	td.drained += int64(len(words))
	f.chips[src].wordsOut += int64(len(words))
	for _, w := range words {
		td.buf = append(td.buf, uint32(w))
	}
	if t.dead || f.chips[dst].dead {
		// A dark link or dead far end: with healing, complete frames move
		// to retransmit custody and the partial tail stays held; without
		// it, everything stranded drops, counted.
		if f.healOn() {
			f.framesToARQ(ti, t, d)
			return
		}
		n := int64(len(td.buf))
		td.dropped += n
		f.droppedCause[dropTrunkDead] += n
		td.buf = td.buf[:0]
		return
	}
	f.pumpDir(t, d)
}

// pumpDir pushes every completed frame in direction d's framer into the
// destination chip's ingress pins. Both endpoints and the trunk must be
// live.
func (f *Fabric) pumpDir(t *trunkState, d int) {
	_, _, dst, dstPort := t.endpoints(d)
	td := &t.dir[d]
	in := f.chips[dst].r.InputPins(dstPort)
	for {
		if len(td.buf) < ip.HeaderWords {
			return
		}
		h, err := ip.Unmarshal(td.buf)
		if err != nil {
			// A frame that does not parse cannot happen on a healthy
			// trunk; resynchronize by sliding one word, as a real framer
			// hunting for a start-of-packet would.
			td.buf = td.buf[1:]
			td.dropped++
			f.droppedCause[dropFrameResync]++
			continue
		}
		n := (int(h.TotalLen) + 3) / 4
		if n < ip.HeaderWords {
			n = ip.HeaderWords
		}
		if len(td.buf) < n {
			return
		}
		for _, w := range td.buf[:n] {
			in.Push(raw.Word(w))
		}
		td.delivered += int64(n)
		td.frames++
		td.acked++
		f.chips[dst].wordsIn += int64(n)
		td.buf = append(td.buf[:0], td.buf[n:]...)
	}
}

// TrunkCounters returns trunk ti's (drained, delivered, dropped,
// retrans, held) word counts for direction d (0 = A->B, 1 = B->A).
func (f *Fabric) TrunkCounters(ti, d int) (drained, delivered, dropped, retrans, held int64) {
	td := &f.trunks[ti].dir[d]
	return td.drained, td.delivered, td.dropped, td.retrans, int64(len(td.buf))
}

// ConservationError checks every trunk direction's word-conservation
// identity (drained == delivered + dropped + retrans + held) and returns
// the first violation, or nil. The identity holds at any instant, faults
// and healing included.
func (f *Fabric) ConservationError() error {
	for ti := range f.trunks {
		t := &f.trunks[ti]
		for d := 0; d < 2; d++ {
			td := &t.dir[d]
			if td.drained != td.delivered+td.dropped+td.retrans+int64(len(td.buf)) {
				return fmt.Errorf("cluster: trunk %s dir %d leaks words: drained %d != delivered %d + dropped %d + retrans %d + held %d",
					t.Trunk, d, td.drained, td.delivered, td.dropped, td.retrans, len(td.buf))
			}
		}
	}
	return nil
}

// ExternalPktsOut sums packets delivered on all external ports (current
// chip instances).
func (f *Fabric) ExternalPktsOut() int64 {
	var n int64
	for e := 0; e < f.spec.Externals(); e++ {
		chip, local := f.spec.ExtPort(e)
		n += f.chips[chip].r.Stats().PktsOut[local]
	}
	return n
}

// ExternalWordsOut sums words delivered on all external ports.
func (f *Fabric) ExternalWordsOut() int64 {
	var n int64
	for e := 0; e < f.spec.Externals(); e++ {
		n += f.OutputWords(e)
	}
	return n
}

// Fingerprint digests the fabric's replay-derived state: fabric cycle,
// every chip's counters and lifecycle state, every trunk direction's
// counters and held frame bytes, and the external drop counts. Two runs
// of the same workload agree on every Fingerprint regardless of engine;
// the conformance suite additionally compares the delivered output
// words, which the fingerprint's counters only size.
func (f *Fabric) Fingerprint() uint64 {
	h := fnv.New64a()
	w64 := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	w64(f.cycle)
	w64(int64(f.nextCtl))
	for k := range f.chips {
		s := &f.chips[k]
		flags := int64(s.epoch) << 1
		if s.dead {
			flags |= 1
		}
		w64(flags)
		w64(s.bornAt)
		w64(s.r.Chip.Cycle())
		st := s.r.Stats()
		for p := 0; p < 4; p++ {
			w64(st.Accepted[p])
			w64(st.Dropped[p])
			w64(st.PktsIn[p])
			w64(st.PktsOut[p])
			w64(st.FragsSent[p])
			w64(st.Lookups[p])
			w64(st.AbortDropped[p])
			w64(st.Underruns[p])
			w64(s.r.OutputWords(p))
		}
		w64(st.FabricLost)
		w64(int64(s.r.DeadPort()))
	}
	for ti := range f.trunks {
		t := &f.trunks[ti]
		if t.dead {
			w64(1)
		} else {
			w64(0)
		}
		for d := 0; d < 2; d++ {
			td := &t.dir[d]
			w64(td.drained)
			w64(td.delivered)
			w64(td.dropped)
			w64(td.retrans)
			w64(td.frames)
			w64(td.acked)
			w64(int64(len(td.buf)))
			for _, w := range td.buf {
				w64(int64(w))
			}
		}
	}
	for _, v := range f.extDropped {
		w64(v)
	}
	// Healing-plane state: ledger counters, ARQ custody, flow windows.
	w64(f.injected)
	w64(f.retiredExtOut)
	w64(f.dupWords)
	for c := 0; c < numDropCauses; c++ {
		w64(f.droppedCause[c])
	}
	w64(f.healEpoch)
	w64(f.reroutes)
	w64(f.retransFrames)
	w64(f.retransWords)
	w64(f.arqSeq)
	w64(int64(len(f.arq)))
	for _, e := range f.arq {
		w64(int64(e.trunk))
		w64(int64(e.dir))
		w64(int64(e.src))
		w64(int64(e.port))
		w64(int64(e.dstExt))
		w64(e.seq)
		w64(int64(e.attempts))
		w64(e.nextTry)
		w64(int64(len(e.words)))
		for _, w := range e.words {
			w64(int64(w))
		}
	}
	for _, k := range sortedFlowKeys(f.flowSeq) {
		w64(int64(k))
		w64(int64(f.flowSeq[k]))
	}
	for _, k := range sortedFlowKeys(f.egressFlows) {
		fl := f.egressFlows[k]
		w64(int64(k))
		flags := int64(fl.max) << 1
		if fl.init {
			flags |= 1
		}
		w64(flags)
		for _, b := range fl.bits {
			w64(int64(b))
		}
	}
	return h.Sum64()
}

// TelemetrySnapshot assembles the fabric-plane export: per-trunk
// per-direction accounting with utilization gauges, the bisection
// aggregate, dead chips, and the fabric event log. Chip-level planes are
// exported separately via ChipTelemetry.
func (f *Fabric) TelemetrySnapshot() telemetry.FabricSnapshot {
	s := telemetry.FabricSnapshot{
		Schema:    telemetry.SchemaVersion,
		Cycle:     f.cycle,
		Topology:  f.spec.String(),
		Chips:     len(f.chips),
		Externals: f.spec.Externals(),
	}
	for k := range f.chips {
		if f.chips[k].dead {
			s.DeadChips = append(s.DeadChips, k)
		}
	}
	for ti := range f.trunks {
		if f.trunks[ti].dead {
			s.DeadTrunks = append(s.DeadTrunks, ti)
		}
	}
	elapsed := f.cycle
	util := func(words int64) float64 {
		if elapsed <= 0 {
			return 0
		}
		return float64(words) / float64(elapsed)
	}
	for ti := range f.trunks {
		t := &f.trunks[ti]
		ts := telemetry.TrunkSample{
			Trunk: ti,
			A:     t.A, APort: t.APort,
			B: t.B, BPort: t.BPort,
		}
		for d := 0; d < 2; d++ {
			td := &t.dir[d]
			ts.Dir[d] = telemetry.TrunkDirSample{
				Drained:     td.drained,
				Delivered:   td.delivered,
				Dropped:     td.dropped,
				Retrans:     td.retrans,
				Frames:      td.frames,
				Acked:       td.acked,
				Held:        int64(len(td.buf)),
				Utilization: util(td.delivered),
			}
		}
		s.Trunks = append(s.Trunks, ts)
	}
	for _, ti := range f.spec.BisectionTrunks() {
		for d := 0; d < 2; d++ {
			s.BisectionWords += f.trunks[ti].dir[d].delivered
		}
	}
	// The cut's capacity is one word per cycle per direction per link.
	if nb := len(f.spec.BisectionTrunks()); nb > 0 && elapsed > 0 {
		s.BisectionUtilization = float64(s.BisectionWords) / float64(2*nb) / float64(elapsed)
	}
	for _, e := range f.events.Events {
		s.Events = append(s.Events, telemetry.EventRecord{
			Cycle: e.Cycle, Port: e.Port, Kind: e.Kind.String(), Detail: e.Detail,
		})
	}
	if f.healOn() {
		d := f.Delivery()
		hs := &telemetry.HealSample{
			Enabled:       true,
			Epochs:        d.HealEpochs,
			Reroutes:      d.Reroutes,
			RetransFrames: d.RetransFrames,
			RetransWords:  d.RetransWords,
			PendingFrames: d.PendingFrames,
			PendingWords:  d.Pending,
			Injected:      d.Injected,
			Delivered:     d.Delivered,
			DupWords:      d.DupWords,
			Partitioned:   d.Partitioned,
		}
		for _, c := range d.Dropped {
			hs.Dropped = append(hs.Dropped, telemetry.DropSample{Cause: c.Cause, Words: c.Words})
		}
		s.Heal = hs
	}
	return s
}

// ChipTelemetry exports chip k's telemetry snapshot (counters-only
// unless Config.Metrics armed the plane).
func (f *Fabric) ChipTelemetry(k int) telemetry.Snapshot {
	return f.chips[k].r.TelemetrySnapshot()
}
