package raw

// Steady-state macro-stepping.
//
// The paper's streaming workloads spend most cycles in tight switch
// loops moving one word per cycle per link while every tile processor is
// either idle or parked on a blocking network operation. In that regime
// the per-cycle transition function is affine: every admitted switch
// fires every cycle, every frozen engine repeats the same stall, and
// queue occupancies change by a constant per cycle. tryMacroStep detects
// the regime, computes the largest window K over which it provably
// persists, and advances K cycles with one tight loop — then restores
// the exact state single-cycle stepping would have produced.
//
// Chip-level gates (any failure falls back to Chip.Step, which is always
// correct; every declined window is attributed in MacroDisarms):
//
//   - No fault plane, no per-cycle hook (SetCycleHook), no tracer —
//     those observe or perturb individual cycles. Step hooks
//     (AddStepHook) instead declare their next due cycle and clamp the
//     window, so a supervisor that batches its observation to quantum
//     boundaries no longer disarms the stepper — the change that lets
//     macro windows form on a live router.
//   - Every attached dynamic device is provably quiescent (see
//     DeviceQuiescer): no buffered output words and nothing in flight,
//     so K skipped Ticks are a no-op.
//
// Tile admission (per-cycle scan, earliest reject wins):
//
//   - Every processor is either stable-idle (no queued micro-ops, state
//     already Idle, firmware absent or permanently quiesced) or provably
//     blocked at its current micro-op: parked on an empty receive queue
//     or a full send queue whose counter-party is itself frozen for the
//     window. A blocked processor never calls Refill, so its firmware
//     cannot act; live (non-quiesced) firmware is additionally required
//     to declare its compiled schedule in a steady state (see
//     SteadyFirmware) so the blocked profile is trustworthy by
//     construction, not just by inspection.
//   - Every dynamic router has no active worm and empty inputs.
//   - Every static switch is halted, admitted as a streamer, or frozen.
//     A streamer is a fireable self-perpetuating route loop — a SwJump
//     self-loop, or a loaded SwRouteN/SwRouteV with iterations remaining
//     (bounding the window) — touching no processor port. A frozen
//     switch is provably stalled for the whole window: blocked on the
//     processor-owned PC/done/count registers (the processor is frozen),
//     or a route instruction with at least one stably non-ready route —
//     an empty source no admitted streamer writes, or a full destination
//     no admitted streamer drains. Anything else (about to halt, load a
//     count, take a jump, or fire a one-shot or processor-coupled
//     route) aborts the window.
//
// The window bound: each streamed queue's occupancy changes by δ ∈
// {-1, 0, +1} per cycle (reader only / reader+writer / writer only).
// δ=0 queues never limit. A drained queue (δ=-1, occupancy L) supports
// K ≤ L; a filled queue (δ=+1) supports K ≤ cap−L; edge input backlogs
// support K ≤ backlog; boundary sinks are unbounded; a loaded counted
// loop supports K ≤ remaining; a step hook due at cycle D supports
// K ≤ D − cycle. By induction, within K = min(bounds) cycles no source
// empties, no destination fills, and no frozen witness changes, so every
// admitted switch fires and every frozen engine stalls every cycle, and
// per-cycle two-phase staging is unnecessary: a popped queue keeps
// occupancy ≥ 1, so a same-cycle push can never be observed by the pop
// regardless of intra-cycle order.
//
// State restored after the window: streamers advance moves += K·routes
// (a counted loop also retires K iterations, advancing pc when it
// completes), frozen switches accrue K stalls, every processor accrues K
// cycles of its blocked (or idle) state, edge sinks receive words with
// exact cycle stamps, unbounded pops advance the taken counter per word,
// touched queues re-arm their start-of-cycle snapshots, and the chip
// cycle advances by K. Checkpoint digests cover all of this, so the
// equivalence suite verifies macro windows bit for bit.

const (
	// macroMinCycles is the smallest window worth the scan; below it,
	// single stepping is cheaper.
	macroMinCycles = 8
	// macroMaxCycles caps a window so edge-sink growth and the caller's
	// view of progress stay bounded even with enormous backlogs.
	macroMaxCycles = 1 << 16
)

// tryMacroStep attempts one macro window of at most budget cycles and
// returns the number of cycles advanced (0: not eligible, caller must
// single-step). Every refusal increments the MacroDisarms histogram.
func (c *Chip) tryMacroStep(budget int64) int64 {
	if budget < macroMinCycles {
		c.macroDisarms[MacroBudget]++
		return 0
	}
	if c.faults != nil {
		c.macroDisarms[MacroFaults]++
		return 0
	}
	if c.cycleHook != nil {
		c.macroDisarms[MacroPerCycleHook]++
		return 0
	}
	if c.cfg.Tracer != nil {
		c.macroDisarms[MacroTracer]++
		return 0
	}
	for _, b := range c.bindings {
		if len(b.outBuf) != 0 || b.quiescer == nil || !b.quiescer.DevQuiesced() {
			c.macroDisarms[MacroDevices]++
			return 0
		}
	}
	for _, h := range c.stepHooks {
		d := h.NextDue(c.cycle)
		if d < 0 {
			continue
		}
		if left := d - c.cycle; left < budget {
			budget = left
		}
	}
	if budget < macroMinCycles {
		c.macroDisarms[MacroHookDue]++
		return 0
	}
	k, cause := c.ensureFast().macroStep(budget)
	if k == 0 {
		c.macroDisarms[cause]++
	}
	return k
}

func (fe *fastEngine) macroStep(budget int64) (int64, MacroCause) {
	c := fe.c
	// Snapshot edge queues exactly as the top of Step would, so words
	// pushed externally since the last cycle are visible to the scan: a
	// switch parked on a freshly refilled backlog must stream, not
	// freeze. Idempotent with Step's own beginCycle if the scan aborts.
	for _, q := range c.edges {
		q.beginCycle()
	}
	plan := fe.plan[:0]
	frozen := fe.frozen[:0]
	abort := func(cause MacroCause) (int64, MacroCause) {
		for _, idx := range plan {
			fe.macroOn[idx] = false
		}
		fe.plan = plan[:0]
		fe.frozen = frozen[:0]
		return 0, cause
	}

	// Pass 1: classify every engine on the chip — processors stable-idle
	// or blocked, dynamic routers inert, switches halted, streaming, or
	// frozen — collecting the admitted streamers with their route masks.
	for _, t := range c.tiles {
		st, ok := macroProcState(t)
		if !ok {
			return abort(MacroExecBusy)
		}
		fe.macroSt[t.id] = st
		if e := t.exec; e.fw != nil {
			q := fe.fwq[t.id]
			if q == nil || !q.Quiesced() {
				// Live firmware: only a blocked processor keeps Refill
				// (and its side effects) off the window's cycles, and
				// only a declared steady phase makes the blocked
				// profile trustworthy.
				if len(e.ops) == 0 {
					return abort(MacroFirmware)
				}
				if s := fe.sfw[t.id]; s == nil || !s.SteadyState() {
					return abort(MacroFirmware)
				}
			}
		}
		for net := 0; net < numDynNets; net++ {
			r := t.dyn[net]
			b := &fe.dy[t.id*numDynNets+net]
			for d := DirN; d < numDirs; d++ {
				if r.lock[d].active {
					return abort(MacroDynActive)
				}
				if b.inF[d] != nil {
					if b.inF[d].Len() != 0 {
						return abort(MacroDynActive)
					}
				} else if b.inU[d].Len() != 0 {
					return abort(MacroDynActive)
				}
			}
		}
		for net := 0; net < NumStaticNets; net++ {
			s := &t.st[net].sw
			if s.halted {
				continue
			}
			if s.pc >= len(s.prog) {
				return abort(MacroSwitchState) // next step must latch halted
			}
			idx := int32(t.id*NumStaticNets + net)
			b := &fe.sw[idx]
			cp, pc := s.comp, s.pc
			op := cp.op[pc]
			switch op {
			case SwHalt:
				return abort(MacroSwitchState)
			case SwRecvPC:
				if b.swPC.CanPop() {
					return abort(MacroSwitchState) // would jump
				}
				frozen = append(frozen, idx)
				continue
			case SwNotify:
				if b.swDone.CanPush() {
					return abort(MacroSwitchState) // would notify and advance
				}
				frozen = append(frozen, idx)
				continue
			}
			// Route instructions: SwRoute, SwJump, SwRouteN, SwRouteV.
			if op == SwRouteN && !s.loaded {
				// Both engines load the count even on a stalled first
				// cycle; freezing here would skip that latch.
				return abort(MacroSwitchState)
			}
			if op == SwRouteV && !s.loaded {
				if b.swCount.CanPop() {
					return abort(MacroSwitchState) // would load the count
				}
				frozen = append(frozen, idx) // writer is the frozen processor
				continue
			}
			if (op == SwRouteN || op == SwRouteV) && s.remaining <= 0 {
				return abort(MacroSwitchState) // next step advances pc
			}
			lo := cp.base[pc]
			hi := lo + uint32(cp.count[pc])
			ready, hasP := true, false
			var srcM, dstM uint8
			for i := lo; i < hi; i++ {
				sd, dd := Dir(cp.src[i]), Dir(cp.dst[i])
				if sd == DirP || dd == DirP {
					hasP = true
				}
				if !b.srcReady(nil, sd) || !b.dstReady(nil, dd) {
					ready = false
				}
				srcM |= 1 << sd
				dstM |= 1 << dd
			}
			if !ready {
				frozen = append(frozen, idx) // stability verified in pass 2
				continue
			}
			// Fireable: only a self-perpetuating loop free of processor
			// ports can stream; a one-shot route or a taken jump moves
			// the pc, and DirP routes couple to the frozen processor.
			if hasP || cp.count[pc] == 0 || op == SwRoute ||
				(op == SwJump && int(cp.arg[pc]) != pc) {
				return abort(MacroSwitchState)
			}
			fe.macroOn[idx] = true
			fe.macroSrcM[idx] = srcM
			fe.macroDstM[idx] = dstM
			plan = append(plan, idx)
		}
	}

	// Pass 2: frozen switches must stay stalled for the whole window.
	// Register-blocked switches are stable by construction (the counter-
	// party is the tile's frozen processor); a route-blocked switch needs
	// one stably non-ready route: an empty source nothing writes, or a
	// full destination nothing drains, where "nothing" accounts for the
	// admitted streamers (final after pass 1).
	for _, idx := range frozen {
		b := &fe.sw[idx]
		s := b.sw
		cp, pc := s.comp, s.pc
		switch cp.op[pc] {
		case SwRecvPC, SwNotify:
			continue
		case SwRouteV:
			if !s.loaded {
				continue
			}
		}
		lo := cp.base[pc]
		hi := lo + uint32(cp.count[pc])
		stable := false
		for i := lo; i < hi; i++ {
			sd, dd := Dir(cp.src[i]), Dir(cp.dst[i])
			if !b.srcReady(nil, sd) {
				// Empty source: csto's writer is the frozen processor,
				// edge backlogs only fill between Run calls, and an
				// internal queue only fills under an admitted streamer.
				if sd == DirP || b.srcU[sd] != nil || !fe.macroWriterActive(b, sd) {
					stable = true
					break
				}
				continue
			}
			if !b.dstReady(nil, dd) {
				// Full destination: csti's reader is the frozen
				// processor; an internal queue only drains under an
				// admitted streamer. (Boundary sinks are never full.)
				if dd == DirP || !fe.macroReaderActive(b, dd) {
					stable = true
					break
				}
			}
		}
		if !stable {
			return abort(MacroSwitchState)
		}
	}

	// Pass 3: the window bound from per-queue flow analysis.
	k := budget
	if k > macroMaxCycles {
		k = macroMaxCycles
	}
	for _, idx := range plan {
		b := &fe.sw[idx]
		s := b.sw
		cp, pc := s.comp, s.pc
		if op := cp.op[pc]; op == SwRouteN || op == SwRouteV {
			if r := int64(s.remaining); r < k {
				k = r
			}
		}
		lo := cp.base[pc]
		hi := lo + uint32(cp.count[pc])
		var seen uint8
		for i := lo; i < hi; i++ {
			sd := Dir(cp.src[i])
			if seen&(1<<sd) == 0 { // distinct sources pop once per cycle
				seen |= 1 << sd
				if u := b.srcU[sd]; u != nil {
					// Edge backlog: external writers only act between
					// Run calls, so δ = -1.
					if l := int64(u.Len()); l < k {
						k = l
					}
				} else if !fe.macroWriterActive(b, sd) {
					if l := int64(b.srcF[sd].Len()); l < k {
						k = l
					}
				}
			}
			dd := Dir(cp.dst[i])
			if b.dstSink[dd] == nil && !fe.macroReaderActive(b, dd) {
				f := b.dstF[dd]
				if room := int64(f.cap - f.Len()); room < k {
					k = room
				}
			}
		}
	}
	if k < macroMinCycles {
		return abort(MacroFlowBound)
	}

	// Execute the window.
	cyc := c.cycle
	for i := int64(0); i < k; i++ {
		for _, idx := range plan {
			b := &fe.sw[idx]
			cp, pc := b.sw.comp, b.sw.pc
			lo := cp.base[pc]
			hi := lo + uint32(cp.count[pc])
			var val [numDirs]Word
			var have uint8
			for j := lo; j < hi; j++ {
				sd := cp.src[j]
				if have&(1<<sd) == 0 {
					have |= 1 << sd
					val[sd] = b.macroPop(Dir(sd))
				}
			}
			for j := lo; j < hi; j++ {
				dd := Dir(cp.dst[j])
				w := val[cp.src[j]]
				if sink := b.dstSink[dd]; sink != nil {
					sink.push(cyc+i, w)
				} else {
					macroPush(b.dstF[dd], w)
				}
			}
		}
	}

	// Restore per-cycle bookkeeping to what K cycles leave behind.
	for _, idx := range plan {
		b := &fe.sw[idx]
		s := b.sw
		cp, pc := s.comp, s.pc
		s.moves += k * int64(cp.count[pc])
		s.movedNow = true
		s.stalledNow = false
		lo := cp.base[pc]
		hi := lo + uint32(cp.count[pc])
		for i := lo; i < hi; i++ {
			sd, dd := Dir(cp.src[i]), Dir(cp.dst[i])
			if u := b.srcU[sd]; u != nil {
				u.startLen = len(u.buf) - u.head
			} else {
				f := b.srcF[sd]
				f.startLen = len(f.buf) - f.head
			}
			if f := b.dstF[dd]; f != nil {
				f.startLen = len(f.buf) - f.head
			}
		}
		if op := cp.op[pc]; op == SwRouteN || op == SwRouteV {
			s.remaining -= int(k)
			if s.remaining == 0 {
				// The last firing also retires the loop, exactly as
				// stepLoop would in that cycle.
				s.pc++
				s.loaded = false
			}
		}
		fe.macroOn[idx] = false
	}
	for _, idx := range frozen {
		s := fe.sw[idx].sw
		s.stalls += k
		s.stalledNow = true
		s.movedNow = false
	}
	for _, t := range c.tiles {
		// Each skipped cycle is one reference-engine step parked in the
		// same state: setState(st) K times.
		st := fe.macroSt[t.id]
		t.exec.counts[st] += k
		t.exec.state = st
	}
	fe.plan = plan[:0]
	fe.frozen = frozen[:0]
	c.cycle += k
	c.macroWindows++
	c.macroCycles += k
	return k, 0
}

// MacroStats reports how often the fast engine's macro-step engaged:
// the number of multi-cycle windows executed and the total cycles they
// covered. Always zero under the reference engine. Benchmarks, the
// engagement regression tests, and the telemetry exporters use it; it is
// not part of the equivalence surface (digests and checkpoints ignore
// it, and the equivalence suites compare exports with the macro fields
// normalized out).
func (c *Chip) MacroStats() (windows, cycles int64) {
	return c.macroWindows, c.macroCycles
}

// macroProcState classifies one tile processor for a macro window. It
// returns the TileState each skipped cycle accrues and whether the
// processor is provably inert: stable-idle (nothing queued, state
// already Idle), or blocked at its current micro-op on a queue whose
// counter-party is frozen for the window — replaying exactly what K
// reference steps would do (count the stall state K times, touch
// nothing). Ops that would compute, move words, latch their count
// function, or burn a multi-cycle sub-step are busy: the window aborts.
func macroProcState(t *Tile) (TileState, bool) {
	e := t.exec
	if len(e.ops) == 0 && e.head == 0 {
		if e.state != StateIdle {
			// One transitional refill step still latches StateIdle.
			return 0, false
		}
		return StateIdle, true
	}
	if e.head >= len(e.ops) {
		return 0, false // refill pending
	}
	op := &e.ops[e.head]
	st := &t.st[op.snet]
	switch op.kind {
	case opRecv:
		if !st.csti.CanPop() {
			return StateStallRecv, true
		}
	case opWaitDone:
		if !st.swDone.CanPop() {
			return StateStallRecv, true
		}
	case opSend:
		if !st.csto.CanPush() {
			return StateStallSend, true
		}
	case opWritePC:
		if !st.swPC.CanPush() {
			return StateStallSend, true
		}
	case opWriteCount:
		if !st.swCount.CanPush() {
			return StateStallSend, true
		}
	case opSendN:
		// Unstarted counted ops latch countF on their first step.
		if op.started && op.n > 0 && op.i < op.n && !st.csto.CanPush() {
			return StateStallSend, true
		}
	case opRecvN:
		if op.started && op.n > 0 && op.sub == 0 && op.i < op.n && !st.csti.CanPop() {
			return StateStallRecv, true
		}
	case opForward:
		if op.started && op.n > 0 && op.i < op.n {
			if !st.csti.CanPop() {
				return StateStallRecv, true
			}
			if !st.csto.CanPush() {
				return StateStallSend, true
			}
		}
	case opDynRecv:
		if !t.dyn[op.net].recv.CanPop() {
			return StateStallRecv, true
		}
	}
	return 0, false
}

// macroWriterActive reports whether the internal queue feeding b's
// source direction d is written every window cycle — i.e. its writer,
// the neighbor's same-network switch, is an admitted streamer routing
// toward this queue. Then δ = 0 and the queue never limits the window.
func (fe *fastEngine) macroWriterActive(b *swBind, d Dir) bool {
	nb := b.tile.neighbor(d)
	widx := nb.id*NumStaticNets + int(b.net)
	return fe.macroOn[widx] && fe.macroDstM[widx]&(1<<d.Opposite()) != 0
}

// macroReaderActive is the dual for b's destination queue across d: its
// reader is the neighbor's switch sourcing from the opposite direction.
func (fe *fastEngine) macroReaderActive(b *swBind, d Dir) bool {
	nb := b.tile.neighbor(d)
	ridx := nb.id*NumStaticNets + int(b.net)
	return fe.macroOn[ridx] && fe.macroSrcM[ridx]&(1<<d.Opposite()) != 0
}

// macroPop pops one committed word, replicating what one cycle's staged
// pop plus commit would do to the ring (fifo: lazy head advance with
// reset-on-drain; edge queue: head advance, taken count, amortized
// compaction). Occupancy ≥ 1 is guaranteed by the window bound.
func (b *swBind) macroPop(d Dir) Word {
	if f := b.srcF[d]; f != nil {
		w := f.buf[f.head]
		f.head++
		if f.head == len(f.buf) {
			f.buf = f.buf[:0]
			f.head = 0
		}
		return w
	}
	u := b.srcU[d]
	w := u.buf[u.head]
	u.head++
	u.taken++
	if u.head >= 64 && u.head*2 >= len(u.buf) {
		u.buf = u.buf[:copy(u.buf, u.buf[u.head:])]
		u.head = 0
	}
	return w
}

// macroPush appends one word, replicating a staged push plus commit
// (compact the consumed prefix when the backing array is full).
func macroPush(f *fifo, w Word) {
	if len(f.buf)+1 > cap(f.buf) {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, w)
}
