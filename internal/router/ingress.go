package router

import (
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/rotor"
)

// ingressFW is the Ingress Processor firmware (§4.2): it streams packets
// in from the line card, validates and updates the IP header (checksum
// verify, TTL decrement with incremental checksum), consults its Lookup
// Processor for the egress port, and then plays the per-quantum crossbar
// protocol — header out, grant in, fragment streamed (payload cut-through
// at the switch, updated header words and padding supplied by the
// processor).
type ingressFW struct {
	rt   *Router
	port int
	prog *IngressProgram

	// sched is the compiled cycle-cost schedule (shared by all four
	// ingress instances, surviving degrade/restore/park); phase indexes
	// it. Written only while the tile executes firmware ops, read by the
	// macro-stepper between cycles.
	sched *FWSchedule
	phase int

	// Current packet state.
	hdrWords  [5]raw.Word
	havePkt   bool
	firstFrag bool
	remaining int // payload words not yet streamed
	totalLen  int // words of the whole packet
	outPort   int
	pktID     int64

	// Multicast state (§8.6): the payload is buffered in local data
	// memory so it can replay for members served in later quanta.
	mcast   bool
	members rotor.McastReq
	buf     []raw.Word // header words + payload

	// backlog polls the line card's receive-ready state (the DMA ring
	// occupancy a real NIC exposes); without it an idle ingress would
	// block reading an empty line and stall the whole crossbar's header
	// exchange.
	backlog func() int
	in      *raw.StaticIn

	// Robustness state. pktStart/lineClaim frame the current packet's
	// words on the line (absolute Consumed() offsets), so an abort knows
	// exactly how much to drain. dead is the masked-out port after
	// degradation (-1 healthy). underruns/strikes drive the bounded
	// retry-with-backoff before the line is declared down.
	pktStart     int64
	lineClaim    int64
	pendingDrain int
	underruns    int
	strikes      int
	lineDown     bool
	dead         int

	// Line-flap retry state (cfg.ReprobeQuanta > 0): while lineDown, the
	// ingress probes the line on an exponential-backoff schedule instead
	// of latching dead forever. probeMark is the line's total pushed-word
	// position at the last probe (growth means the line talks again);
	// reprobeIn counts quanta to the next probe; reprobeAtt the silent
	// probes so far (backoff exponent); reprobeNow forces a probe (set
	// between cycles by a scheduled reprobe control). rng is the
	// per-port xorshift64* jitter state — firmware-owned, so the backoff
	// schedule replays bit-for-bit.
	probeMark  int64
	reprobeIn  int
	reprobeAtt int
	reprobeNow bool
	rng        uint64

	// Restore coordination (see restore.go). pause declines new packet
	// acquisition while a restore drains the fabric; probation holds the
	// re-admitted port to empty headers until its probation window ends.
	pause     bool
	probation bool
}

// lineDownStrikes is how many underrun timeouts (each with doubled
// patience) the ingress tolerates before declaring its input line down.
const lineDownStrikes = 3

// reprobeAttCap bounds the backoff exponent (2^16 quanta ≈ 18 s of
// simulated time between probes at the default quantum).
const reprobeAttCap = 16

// SteadyState implements raw.SteadyFirmware: the compiled schedule says
// whether the current phase presents a constant per-cycle profile.
func (f *ingressFW) SteadyState() bool { return f.sched.Steady(f.phase) }

func (f *ingressFW) Refill(e *raw.Exec) {
	if f.lineDown {
		// A down line stops draining and acquiring; with reprobe armed it
		// periodically checks whether the line resumed talking.
		f.phase = ingPhaseDown
		f.lineDownQuantum(e)
		return
	}
	if f.pendingDrain > 0 {
		f.phase = ingPhaseDrain
		f.drainPending(e)
		return
	}
	if f.havePkt {
		f.quantum(e)
		return
	}
	if f.pause || f.probation {
		// Restore drain (pause) or post-restore probation: decline new
		// packets but keep playing idle quanta — the header exchange and
		// the watchdog's progress heartbeat must stay alive.
		f.phase = ingPhaseIdle
		f.idleQuantum(e)
		return
	}
	f.phase = ingPhaseIdle
	e.Then(func(e *raw.Exec) { // poll the line card: one cycle
		if f.backlog() < ip.HeaderWords {
			f.idleQuantum(e)
			return
		}
		f.acquire(e)
	})
}

// drainPending discards line words still claimed by an aborted packet,
// as they arrive, then keeps the crossbar protocol in lockstep with an
// idle quantum. Resynchronizes the line to a packet boundary after an
// underrun timeout or a degraded-mode reset.
func (f *ingressFW) drainPending(e *raw.Exec) {
	n := f.pendingDrain
	if avail := f.backlog(); avail < n {
		n = avail
	}
	if n == 0 {
		f.underrun(e)
		return
	}
	f.underruns = 0
	e.WriteSwitchPC(func() raw.Word { return f.prog.Drop })
	e.WriteSwitchCount(func() raw.Word { return raw.Word(n) })
	e.RecvN(func() int { return n }, 1, nil)
	e.WaitSwitchDone(nil)
	e.Then(func(*raw.Exec) { f.pendingDrain -= n })
	f.idleQuantum(e)
}

// underrun plays an idle quantum while the line card is behind. With
// UnderrunQuanta configured, a packet whose line stalls for that many
// consecutive quanta is aborted and its claimed words drained; each
// timeout doubles the patience (backoff), and after lineDownStrikes
// timeouts the port is declared down and stops reading the line.
func (f *ingressFW) underrun(e *raw.Exec) {
	f.rt.stats.Underruns[f.port]++
	f.underruns++
	limit := f.rt.cfg.UnderrunQuanta
	if limit > 0 && f.underruns >= limit<<f.strikes {
		f.strikes++
		f.underruns = 0
		if f.havePkt {
			f.rt.stats.AbortDropped[f.port]++
			f.havePkt = false
			f.mcast = false
			f.pendingDrain = f.claimedWords()
		}
		if f.strikes >= lineDownStrikes {
			f.markLineDown()
		}
	}
	f.idleQuantum(e)
}

// markLineDown declares the input line dead. With reprobe armed the
// pending drain is kept — a recovered line resynchronizes from it; the
// latch-forever mode zeroes it, as no words will ever arrive.
func (f *ingressFW) markLineDown() {
	f.lineDown = true
	f.probeMark = f.pushedTotal()
	f.reprobeAtt = 0
	if f.rt.cfg.ReprobeQuanta > 0 {
		f.scheduleReprobe()
	} else {
		f.pendingDrain = 0
	}
}

// pushedTotal is the line's absolute stream position: every word the
// testbench ever pushed that survived the fault plane, consumed or not.
// A down line is alive again exactly when this grows.
func (f *ingressFW) pushedTotal() int64 { return f.in.Consumed() + int64(f.in.Len()) }

// lineDownQuantum plays an idle quantum on a down line and runs the
// reprobe schedule: when the countdown (or a forced reprobe control)
// fires, a silent line backs off exponentially and a talking line comes
// back up, discarding the words still claimed by the packet that was cut
// off (FlapDrops) to resynchronize at a packet boundary.
func (f *ingressFW) lineDownQuantum(e *raw.Exec) {
	probe := f.reprobeNow
	f.reprobeNow = false
	if !probe && f.rt.cfg.ReprobeQuanta > 0 {
		f.reprobeIn--
		probe = f.reprobeIn <= 0
	}
	if probe {
		f.probe()
	}
	f.idleQuantum(e)
}

func (f *ingressFW) probe() {
	pushed := f.pushedTotal()
	if pushed > f.probeMark {
		// The line talks again: discard the aborted packet's residue so
		// the stream resumes at the next packet boundary, and rejoin.
		f.rt.stats.Recovered[f.port]++
		f.pendingDrain = f.claimedWords()
		f.rt.stats.FlapDrops[f.port] += int64(f.pendingDrain)
		f.lineDown = false
		f.strikes = 0
		f.underruns = 0
		f.reprobeAtt = 0
		return
	}
	f.rt.stats.Reprobes[f.port]++
	f.probeMark = pushed
	if f.reprobeAtt < reprobeAttCap {
		f.reprobeAtt++
	}
	if f.rt.cfg.ReprobeQuanta > 0 {
		f.scheduleReprobe()
	}
}

// scheduleReprobe sets the countdown to the next probe: ReprobeQuanta
// doubled per silent probe, plus up to half that again of seeded jitter
// so fleets of ports don't probe in phase.
func (f *ingressFW) scheduleReprobe() {
	base := f.rt.cfg.ReprobeQuanta << f.reprobeAtt
	if base <= 0 { // shift overflow guard
		base = f.rt.cfg.ReprobeQuanta << reprobeAttCap
	}
	f.reprobeIn = base + int(f.nextRand()%uint64(base/2+1))
}

// nextRand steps the per-port xorshift64* jitter stream.
func (f *ingressFW) nextRand() uint64 {
	x := f.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	f.rng = x
	return x * 0x2545F4914F6CDD1D
}

// reprobeSeed derives port p's jitter stream from the configured seed;
// the port mix keeps streams distinct, the fixed constant keeps a zero
// seed usable.
func reprobeSeed(seed uint64, p int) uint64 {
	s := seed ^ 0x9E3779B97F4A7C15*uint64(p+1)
	if s == 0 {
		s = 0x2545F4914F6CDD1D
	}
	return s
}

// claimedWords returns how many of the current packet's words have not
// yet been consumed off the line.
func (f *ingressFW) claimedWords() int {
	n := int(f.lineClaim - f.in.Consumed())
	if n < 0 {
		n = 0
	}
	return n
}

// resetForDegrade aborts any in-flight packet fail-stop when the fabric
// degrades: the firmware restarts from a clean slate, draining whatever
// the aborted packet still claims on the line, and from now on drops
// packets addressed to the dead egress at acquire time.
func (f *ingressFW) resetForDegrade(dead int) {
	f.dead = dead
	if f.havePkt {
		f.rt.stats.AbortDropped[f.port]++
	}
	if f.havePkt || f.lineClaim > f.in.Consumed() {
		f.pendingDrain = f.claimedWords()
	}
	f.havePkt = false
	f.mcast = false
	f.underruns = 0
	f.pause = false
	f.probation = false
}

// resetForRestore rejoins the ingress to the healthy fabric after a
// restore. Live ports keep their line state (a down line stays down and
// keeps probing); the restored port starts clean — in probation when a
// window is configured, draining whatever its cut-off packet still
// claims on the line so the stream resumes at a packet boundary.
func (f *ingressFW) resetForRestore(restored bool, probation bool) {
	f.dead = -1
	f.pause = false
	if !restored {
		return
	}
	f.probation = probation
	f.lineDown = false
	f.strikes = 0
	f.underruns = 0
	f.reprobeAtt = 0
	f.reprobeNow = false
	f.havePkt = false
	f.mcast = false
	f.pendingDrain = f.claimedWords()
}

// idleQuantum keeps the crossbar protocol in lockstep when this port has
// nothing to send: an empty header, a (necessarily negative) grant.
func (f *ingressFW) idleQuantum(e *raw.Exec) {
	e.WriteSwitchPC(func() raw.Word { return f.prog.Quantum })
	e.Send(LocalHdrEmpty)
	e.Recv(nil)
	e.WaitSwitchDone(nil)
}

// acquire reads the next packet's IP header from the line card, verifies
// it, and resolves the egress port.
func (f *ingressFW) acquire(e *raw.Exec) {
	f.phase = ingPhaseAcquire
	f.pktStart = f.in.Consumed()
	f.lineClaim = f.pktStart + int64(ip.HeaderWords)
	e.WriteSwitchPC(func() raw.Word { return f.prog.Acquire })
	for i := 0; i < 5; i++ {
		i := i
		e.Recv(func(w raw.Word) { f.hdrWords[i] = w })
	}
	// Checksum verify + TTL decrement + length extraction. The paper's
	// ingress does this in a handful of unrolled ALU instructions.
	e.Compute(f.rt.cfg.HeaderCycles)
	e.Then(func(e *raw.Exec) {
		words := []uint32{uint32(f.hdrWords[0]), uint32(f.hdrWords[1]),
			uint32(f.hdrWords[2]), uint32(f.hdrWords[3]), uint32(f.hdrWords[4])}
		h, err := ip.Unmarshal(words)
		bad := err != nil
		if !bad {
			if derr := ip.DecrementTTL(words); derr != nil {
				bad = true
			}
		}
		for i := range f.hdrWords {
			f.hdrWords[i] = raw.Word(words[i])
		}
		f.totalLen = (int(h.TotalLen) + 3) / 4
		if f.totalLen < ip.HeaderWords {
			f.totalLen = ip.HeaderWords
		}
		if f.totalLen > 4096 { // 16 KB sanity bound on a corrupt length
			f.totalLen = ip.HeaderWords
		}
		f.lineClaim = f.pktStart + int64(f.totalLen)
		// The Acquire switch routine has committed to a lookup exchange;
		// send the destination (a garbage word on the drop path).
		e.SendFunc(func() raw.Word { return raw.Word(h.Dst) })
		var port raw.Word
		e.Recv(func(w raw.Word) { port = w })
		e.WaitSwitchDone(nil)
		e.Then(func(e *raw.Exec) {
			if bad || port == lookupNoRoute {
				f.rt.stats.Dropped[f.port]++
				f.drop(e)
				return
			}
			if port&lookupMcastBit != 0 {
				// Multicast (§8.6): single-quantum packets only; the
				// payload is ingested into local memory for replay.
				if f.totalLen > f.rt.cfg.QuantumWords {
					f.rt.stats.Dropped[f.port]++
					f.drop(e)
					return
				}
				f.members = rotor.McastReq(port & 0xf)
				f.mcast = true
				f.havePkt = true
				f.pktID++
				f.rt.stats.Accepted[f.port]++
				f.ingest(e)
				return
			}
			f.outPort = int(port)
			if f.outPort == f.dead {
				// The destination egress died; fail fast instead of
				// requesting a grant the masked allocator can never give.
				f.rt.stats.AbortDropped[f.port]++
				f.drop(e)
				return
			}
			f.mcast = false
			f.havePkt = true
			f.firstFrag = true
			f.remaining = f.totalLen - ip.HeaderWords
			f.pktID++
			f.rt.stats.Accepted[f.port]++
		})
	})
}

// drop schedules the doomed packet's remaining words for draining. The
// drain itself happens in later Refills as the words actually arrive
// (drainPending), so a dropped packet whose tail is still in flight on
// the wire can never stall this tile — or, transitively, the crossbar —
// waiting for it.
func (f *ingressFW) drop(e *raw.Exec) {
	f.pendingDrain = f.claimedWords()
	f.idleQuantum(e)
}

// fragLen returns the current fragment's length in words.
func (f *ingressFW) fragLen() int {
	q := f.rt.cfg.QuantumWords
	if f.firstFrag {
		n := ip.HeaderWords + f.remaining
		if n > q {
			n = q
		}
		return n
	}
	n := f.remaining
	if n > q {
		n = q
	}
	return n
}

// lastFrag reports whether the current fragment completes the packet.
func (f *ingressFW) lastFrag() bool {
	if f.firstFrag {
		return ip.HeaderWords+f.remaining <= f.rt.cfg.QuantumWords
	}
	return f.remaining <= f.rt.cfg.QuantumWords
}

// ingest buffers a multicast packet's payload into local data memory
// (2 cycles/word, §4.4) behind the already-held header words.
func (f *ingressFW) ingest(e *raw.Exec) {
	f.phase = ingPhaseIngest
	f.buf = f.buf[:0]
	for _, w := range f.hdrWords {
		f.buf = append(f.buf, w)
	}
	payload := f.totalLen - ip.HeaderWords
	if payload == 0 {
		return
	}
	e.WriteSwitchPC(func() raw.Word { return f.prog.Drop })
	e.WriteSwitchCount(func() raw.Word { return raw.Word(payload) })
	e.RecvN(func() int { return payload }, 2, func(_ int, w raw.Word) {
		f.buf = append(f.buf, w)
	})
	e.WaitSwitchDone(nil)
}

// mcastQuantum plays one multicast round: request the remaining members,
// replay the buffered packet for those served.
func (f *ingressFW) mcastQuantum(e *raw.Exec) {
	f.phase = ingPhaseQuantum
	e.WriteSwitchPC(func() raw.Word { return f.prog.Quantum })
	hdr := LocalHdrFirst(LocalHdrMcast(f.members, f.totalLen, true))
	e.SendFunc(func() raw.Word { return hdr })
	var grant raw.Word
	e.Recv(func(w raw.Word) { grant = w })
	e.WaitSwitchDone(nil)
	e.Then(func(e *raw.Exec) {
		served := GrantServed(grant)
		_, l := DecodeGrant(grant)
		if served == 0 {
			f.rt.stats.Denied[f.port]++
			return
		}
		// One fanout-split stream serves every granted member.
		f.phase = ingPhaseMcastStream
		e.WriteSwitchPC(func() raw.Word { return f.prog.StreamP })
		e.WriteSwitchCount(func() raw.Word { return raw.Word(l) })
		e.SendN(func() int { return l }, func(i int) raw.Word {
			if i < len(f.buf) {
				return f.buf[i]
			}
			return 0 // padding
		})
		e.WaitSwitchDone(nil)
		e.Then(func(*raw.Exec) {
			f.rt.stats.FragsSent[f.port]++
			f.rt.stats.McastCopies[f.port] += int64(served.Count())
			f.members &^= served
			if f.members == 0 {
				f.havePkt = false
				f.mcast = false
				f.rt.stats.PktsIn[f.port]++
				f.rt.stats.McastIn[f.port]++
			}
		})
	})
}

// quantum plays one round of the crossbar protocol.
func (f *ingressFW) quantum(e *raw.Exec) {
	if f.mcast {
		f.mcastQuantum(e)
		return
	}
	f.phase = ingPhaseQuantum
	// Store-and-forward gating: don't request a grant until every word
	// the fragment would cut through is already in the line buffer. A
	// granted stream whose line card underruns would stall the switch
	// mid-routine and wedge the whole crossbar quantum; gating converts
	// that fabric-wide hazard into idle quanta on this port alone.
	need := f.fragLen()
	if f.firstFrag {
		need -= ip.HeaderWords // header words are already held
	}
	if f.backlog() < need {
		f.underrun(e)
		return
	}
	f.underruns = 0
	f.strikes = 0
	e.WriteSwitchPC(func() raw.Word { return f.prog.Quantum })
	hdr := LocalHdr(f.outPort, f.fragLen(), f.lastFrag())
	if f.firstFrag {
		hdr = LocalHdrFirst(hdr)
	}
	if f.rt.cfg.Crypto {
		hdr = LocalHdrCrypto(hdr)
	}
	// §8.7: the IP precedence bits (TOS[7:5]) become the crossbar
	// priority class.
	hdr = LocalHdrPrio(hdr, uint8(f.hdrWords[0]>>16)>>5)
	e.SendFunc(func() raw.Word { return hdr })
	var grant raw.Word
	e.Recv(func(w raw.Word) { grant = w })
	e.WaitSwitchDone(nil)
	e.Then(func(e *raw.Exec) {
		granted, l := DecodeGrant(grant)
		if !granted {
			f.rt.stats.Denied[f.port]++
			return // next Refill retries the quantum
		}
		f.stream(e, l)
	})
}

// stream sends the current fragment padded to l words.
func (f *ingressFW) stream(e *raw.Exec, l int) {
	f.phase = ingPhaseStream
	frag := f.fragLen()
	last := f.lastFrag()
	pad := l - frag
	if pad < 0 {
		panic("router: fragment longer than quantum stream")
	}
	if f.firstFrag {
		payload := frag - ip.HeaderWords
		e.WriteSwitchPC(func() raw.Word { return f.prog.Stream1 })
		// 5 updated header words from the processor.
		e.SendN(func() int { return 5 }, func(i int) raw.Word { return f.hdrWords[i] })
		e.WriteSwitchCount(func() raw.Word { return raw.Word(payload) })
		e.WriteSwitchCount(func() raw.Word { return raw.Word(pad) })
		e.SendN(func() int { return pad }, func(int) raw.Word { return 0 })
		f.remaining -= payload
	} else {
		e.WriteSwitchPC(func() raw.Word { return f.prog.Stream2 })
		e.WriteSwitchCount(func() raw.Word { return raw.Word(frag) })
		e.WriteSwitchCount(func() raw.Word { return raw.Word(pad) })
		e.SendN(func() int { return pad }, func(int) raw.Word { return 0 })
		f.remaining -= frag
	}
	e.WaitSwitchDone(nil)
	e.Then(func(*raw.Exec) {
		f.firstFrag = false
		f.rt.stats.FragsSent[f.port]++
		if last {
			f.havePkt = false
			f.rt.stats.PktsIn[f.port]++
		}
	})
}
