package raw

// The compiled fast engine.
//
// The reference engine (static.go, dynamic.go, tile.go) interprets
// []SwInstr route slices and reaches every queue through the wordQueue
// interface, re-deriving neighbor/boundary topology on each transfer.
// That dispatch — not the transfers themselves — dominates the cycle
// loop. The fast engine removes it without changing any simulated state:
//
//   - Switch programs are pre-flattened (CompiledProgram) and every
//     (tile, network) switch gets a swBind with its five source and five
//     destination endpoints resolved to concrete ring buffers, boundary
//     sinks, and precomputed fault keys. A cycle step is then array
//     arithmetic over dense [pc] tables.
//   - Every (tile, network) dynamic router gets a dynBind with concrete
//     input/output queue references and its boundary/device bindings
//     resolved, plus an early exit when no worm is active and no input
//     has a word — the common case on a lightly loaded mesh, and ~800
//     interface calls per cycle in the reference engine.
//   - Tiles whose processor, switches, and routers are all provably
//     quiescent go on a skip list (asleep); a sleeping tile's whole
//     cycle is one idle-state counter increment, exactly what the
//     reference engine's step would have done. Any event that can
//     re-activate a tile — a dynamic-network delivery, a device
//     injection, new micro-ops, reprogramming — wakes it or rebuilds
//     the bindings.
//
// Because the fast engine mutates the same swState/Exec/dynRouter/fifo
// objects the reference engine does, checkpoints, digests, telemetry
// snapshots, and every public accessor are identical by construction;
// the equivalence tests (engine_equiv_test.go, internal/fault) verify
// the per-cycle transition functions match bit for bit.
//
// All derived state lives on fastEngine and is rebuilt from scratch by
// buildFastEngine whenever a reconfiguration calls invalidateFast —
// binding rebuilds are rare (program installs, device attachment, fault
// installation) and cost microseconds.

// Quiescer is an optional Firmware extension. Quiesced reports that the
// firmware has permanently finished: Refill will enqueue nothing and has
// no side effects, now and on every future cycle, until the executor is
// reconfigured (SetFirmware/Reset). The fast engine uses it to let tiles
// running halted programs sleep; firmware that cannot promise stickiness
// must not implement it.
type Quiescer interface {
	Quiesced() bool
}

// SteadyFirmware is an optional Firmware extension for live state
// machines that cannot quiesce but can declare steady phases.
// SteadyState reports that the firmware's compiled cycle-cost schedule
// (see internal/router's firmware schedules) is currently in a phase
// whose per-cycle profile is constant — every queued micro-op either
// blocks without side effects or moves words at a fixed one-cycle-per-
// word rate — so the macro-step flow analysis may reason about the tile
// while the firmware is mid-quantum. Firmware in a non-steady phase
// (multi-cycle-per-word buffering, cache probes, cryptographic
// transforms) must return false and falls back to per-cycle stepping.
type SteadyFirmware interface {
	Firmware
	SteadyState() bool
}

// swBind is one static switch's compiled execution context: the switch
// state it advances plus every queue endpoint its routes can touch,
// resolved to concrete types. Exactly one of srcF/srcU is non-nil per
// direction (DirP is csto); dst sides are a fifo (DirP is csti, internal
// links the neighbor's input), or a boundary EdgeSink.
type swBind struct {
	sw   *swState
	tile *Tile
	tid  int32
	net  int32

	srcF [numDirs]*fifo
	srcU [numDirs]*unboundedFIFO

	dstF    [numDirs]*fifo
	dstSink [numDirs]*EdgeSink
	// LinkStalled keys for the dst side: boundary links are keyed by this
	// tile and direction, internal links by the reading endpoint — the
	// neighbor and the opposite direction (see Tile.staticDstReady).
	dstFT [numDirs]int32
	dstFD [numDirs]Dir

	swPC, swDone, swCount *fifo
}

// dynBind is one dynamic router's compiled execution context.
type dynBind struct {
	r    *dynRouter
	recv *fifo

	inF [numDirs]*fifo
	inU [numDirs]*unboundedFIFO

	// outF is the delivery fifo per output (recv for DirP, the neighbor's
	// input for internal links; nil at the boundary). outEdge is the
	// attached device binding for boundary outputs (nil when unattached:
	// words fall off the pins, as in Chip.dynEdgeOut). outTile is the
	// receiving tile per internal output, for the wake hook.
	outF        [numDirs]*fifo
	outEdge     [numDirs]*dynBinding
	outBoundary [numDirs]bool
	outTile     [numDirs]int32
}

// fastEngine is the chip-owned derived state of the compiled engine.
type fastEngine struct {
	c  *Chip
	sw []swBind  // [tile*NumStaticNets + net]
	dy []dynBind // [tile*numDynNets + net]

	// fwq caches each tile firmware's Quiescer, nil when the firmware
	// does not implement it (or there is none). sfw is the analogous
	// cache for SteadyFirmware (live state machines with declared steady
	// phases).
	fwq []Quiescer
	sfw []SteadyFirmware

	// asleep is the idle-tile skip list: a quiescent tile is not
	// stepped until a wake (dynamic-network delivery, device injection,
	// new micro-ops) or a rebuild re-activates it.
	asleep []bool

	// Macro-step scratch (see macro.go): per-switch membership and route
	// masks for the current scan, the reusable plan buffer of admitted
	// streamers, the frozen (provably blocked) switch list awaiting
	// witness verification, and the per-tile processor state each window
	// cycle accrues.
	macroOn   []bool
	macroSrcM []uint8
	macroDstM []uint8
	plan      []int32
	frozen    []int32
	macroSt   []TileState
}

// buildFastEngine resolves all bindings from the chip's current
// configuration. Must run between cycles.
func buildFastEngine(c *Chip) *fastEngine {
	n := len(c.tiles)
	fe := &fastEngine{
		c:         c,
		sw:        make([]swBind, n*NumStaticNets),
		dy:        make([]dynBind, n*numDynNets),
		fwq:       make([]Quiescer, n),
		sfw:       make([]SteadyFirmware, n),
		asleep:    make([]bool, n),
		macroOn:   make([]bool, n*NumStaticNets),
		macroSrcM: make([]uint8, n*NumStaticNets),
		macroDstM: make([]uint8, n*NumStaticNets),
		macroSt:   make([]TileState, n),
	}
	for _, t := range c.tiles {
		if fw := t.exec.fw; fw != nil {
			if q, ok := fw.(Quiescer); ok {
				fe.fwq[t.id] = q
			}
			if s, ok := fw.(SteadyFirmware); ok {
				fe.sfw[t.id] = s
			}
		}
		for net := 0; net < NumStaticNets; net++ {
			b := &fe.sw[t.id*NumStaticNets+net]
			st := &t.st[net]
			b.sw = &st.sw
			b.tile = t
			b.tid = int32(t.id)
			b.net = int32(net)
			b.srcF[DirP] = st.csto
			b.dstF[DirP] = st.csti
			b.swPC, b.swDone, b.swCount = st.swPC, st.swDone, st.swCount
			for d := DirN; d < DirP; d++ {
				switch q := st.in[d].(type) {
				case *fifo:
					b.srcF[d] = q
				case *unboundedFIFO:
					b.srcU[d] = q
				}
				if t.Boundary(d) {
					b.dstSink[d] = st.edgeOut[d]
					b.dstFT[d] = int32(t.id)
					b.dstFD[d] = d
				} else {
					nb := t.neighbor(d)
					b.dstF[d] = nb.st[net].in[d.Opposite()].(*fifo)
					b.dstFT[d] = int32(nb.id)
					b.dstFD[d] = d.Opposite()
				}
			}
		}
		for net := 0; net < numDynNets; net++ {
			b := &fe.dy[t.id*numDynNets+net]
			r := t.dyn[net]
			b.r = r
			b.recv = r.recv
			for d := DirN; d < numDirs; d++ {
				switch q := r.in[d].(type) {
				case *fifo:
					b.inF[d] = q
				case *unboundedFIFO:
					b.inU[d] = q
				}
			}
			b.outF[DirP] = r.recv
			for d := DirN; d < DirP; d++ {
				if t.Boundary(d) {
					b.outBoundary[d] = true
					b.outEdge[d] = c.dynEdgeSinks[[3]int{t.id, int(d), net}]
				} else {
					nb := t.neighbor(d)
					b.outF[d] = nb.dyn[net].in[d.Opposite()].(*fifo)
					b.outTile[d] = int32(nb.id)
				}
			}
		}
	}
	return fe
}

// wake removes a tile from the skip list.
func (fe *fastEngine) wake(tile int32) { fe.asleep[tile] = false }

// wakeTile is the chip-level wake hook for events originating outside
// the cycle loop (micro-op enqueues, device injections).
func (c *Chip) wakeTile(tile int) {
	if fe := c.fe; fe != nil {
		fe.asleep[tile] = false
	}
}

// stepTile advances one tile's engines one cycle under the compiled
// paths; the processor executor is shared with the reference engine.
// Engine order matches Tile.step (irrelevant to the outcome — the
// two-phase queue discipline makes the cycle order-independent — but
// kept identical for clarity).
func (fe *fastEngine) stepTile(t *Tile) {
	t.exec.step()
	fp := fe.c.faults
	cyc := fe.c.cycle
	i := t.id * NumStaticNets
	fe.sw[i].step(fp, cyc)
	fe.sw[i+1].step(fp, cyc)
	j := t.id * numDynNets
	fe.dy[j].step(fe)
	fe.dy[j+1].step(fe)
}

// tileQuiescent reports whether the tile can join the skip list: the
// processor is idle with no queued work and permanently-finished (or no)
// firmware, both switches have halted, and both dynamic routers have no
// active worm and empty inputs. A sleeping tile's reference step would
// be exactly one setState(StateIdle) — which the skip path replays.
// Check order is cheapest-reject-first: busy tiles (the router workload)
// exit on the processor or switch checks in a few loads.
func (fe *fastEngine) tileQuiescent(t *Tile) bool {
	e := t.exec
	if len(e.ops) != 0 || e.head != 0 || e.state != StateIdle {
		return false
	}
	if !t.st[0].sw.halted || !t.st[1].sw.halted {
		return false
	}
	if e.fw != nil {
		q := fe.fwq[t.id]
		if q == nil || !q.Quiesced() {
			return false
		}
	}
	for net := 0; net < numDynNets; net++ {
		r := t.dyn[net]
		b := &fe.dy[t.id*numDynNets+net]
		for d := DirN; d < numDirs; d++ {
			if r.lock[d].active {
				return false
			}
			// Occupancy including this cycle's staged pushes from
			// neighbors: a word landing now must wake the router next
			// cycle, so it blocks sleep.
			if b.inF[d] != nil {
				if b.inF[d].Len() != 0 {
					return false
				}
			} else if b.inU[d].Len() != 0 {
				return false
			}
		}
	}
	return true
}

// --- compiled static switch step -------------------------------------
//
// step/stepLoop/fire mirror swState.step/stepLoop/fire instruction for
// instruction; the only differences are the dense program tables, the
// concrete queue references, and computing the activity flags directly
// instead of via a deferred counter comparison.

func (b *swBind) step(fp FaultPlane, cyc int64) {
	s := b.sw
	s.movedNow = false
	s.stalledNow = false
	if s.halted || s.pc >= len(s.prog) {
		s.halted = true
		return
	}
	cp := s.comp
	pc := s.pc
	switch cp.op[pc] {
	case SwHalt:
		s.halted = true
	case SwJump:
		if b.fire(fp, cp, pc, cyc) {
			s.pc = int(cp.arg[pc])
			s.movedNow = cp.count[pc] != 0
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwRecvPC:
		if b.swPC.CanPop() {
			s.pc = int(b.swPC.Pop())
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwNotify:
		if b.swDone.CanPush() {
			b.swDone.Push(cp.arg[pc])
			s.pc++
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwRoute:
		if b.fire(fp, cp, pc, cyc) {
			s.pc++
			s.movedNow = cp.count[pc] != 0
		} else {
			s.stalls++
			s.stalledNow = true
		}
	case SwRouteN:
		if !s.loaded {
			s.remaining = int(cp.arg[pc])
			s.loaded = true
		}
		b.stepLoop(fp, cp, pc, cyc)
	case SwRouteV:
		if !s.loaded {
			if !b.swCount.CanPop() {
				s.stalls++
				s.stalledNow = true
				return
			}
			s.remaining = int(b.swCount.Pop())
			s.loaded = true
			return // loading the count register takes the cycle
		}
		b.stepLoop(fp, cp, pc, cyc)
	}
}

func (b *swBind) stepLoop(fp FaultPlane, cp *CompiledProgram, pc int, cyc int64) {
	s := b.sw
	if s.remaining <= 0 {
		s.pc++
		s.loaded = false
		return
	}
	if b.fire(fp, cp, pc, cyc) {
		s.movedNow = cp.count[pc] != 0
		s.remaining--
		if s.remaining == 0 {
			s.pc++
			s.loaded = false
		}
	} else {
		s.stalls++
		s.stalledNow = true
	}
}

func (b *swBind) fire(fp FaultPlane, cp *CompiledProgram, pc int, cyc int64) bool {
	lo := cp.base[pc]
	hi := lo + uint32(cp.count[pc])
	for i := lo; i < hi; i++ {
		if !b.srcReady(fp, Dir(cp.src[i])) || !b.dstReady(fp, Dir(cp.dst[i])) {
			return false
		}
	}
	var val [numDirs]Word
	var have [numDirs]bool
	for i := lo; i < hi; i++ {
		sd := cp.src[i]
		if !have[sd] {
			val[sd] = b.pop(fp, Dir(sd))
			have[sd] = true
		}
	}
	for i := lo; i < hi; i++ {
		b.push(Dir(cp.dst[i]), val[cp.src[i]], cyc)
	}
	b.sw.moves += int64(cp.count[pc])
	return true
}

func (b *swBind) srcReady(fp FaultPlane, d Dir) bool {
	if f := b.srcF[d]; f != nil {
		if d != DirP && fp != nil && fp.LinkStalled(int(b.tid), d, int(b.net)) {
			return false
		}
		return f.CanPop()
	}
	if fp != nil && fp.LinkStalled(int(b.tid), d, int(b.net)) {
		return false
	}
	return b.srcU[d].CanPop()
}

func (b *swBind) dstReady(fp FaultPlane, d Dir) bool {
	if d == DirP {
		return b.dstF[DirP].CanPush()
	}
	if fp != nil && fp.LinkStalled(int(b.dstFT[d]), b.dstFD[d], int(b.net)) {
		return false
	}
	if f := b.dstF[d]; f != nil {
		return f.CanPush()
	}
	return true // boundary sink: off-chip buffering always has space
}

func (b *swBind) pop(fp FaultPlane, d Dir) Word {
	if d == DirP {
		return b.srcF[DirP].Pop()
	}
	var w Word
	if f := b.srcF[d]; f != nil {
		w = f.Pop()
	} else {
		w = b.srcU[d].Pop()
	}
	if fp != nil {
		w = fp.CorruptPop(int(b.tid), d, int(b.net), w)
	}
	return w
}

func (b *swBind) push(d Dir, w Word, cyc int64) {
	if f := b.dstF[d]; f != nil {
		f.Push(w)
		return
	}
	b.dstSink[d].push(cyc, w)
}

// --- compiled dynamic router step ------------------------------------

func (b *dynBind) canPop(d Dir) bool {
	if f := b.inF[d]; f != nil {
		return f.CanPop()
	}
	return b.inU[d].CanPop()
}

func (b *dynBind) poppedThisCycle(d Dir) bool {
	if f := b.inF[d]; f != nil {
		return f.poppedThisCycle()
	}
	return b.inU[d].poppedThisCycle()
}

func (b *dynBind) peek(d Dir) Word {
	if f := b.inF[d]; f != nil {
		return f.Peek()
	}
	return b.inU[d].Peek()
}

func (b *dynBind) pop(d Dir) Word {
	if f := b.inF[d]; f != nil {
		return f.Pop()
	}
	return b.inU[d].Pop()
}

func (b *dynBind) dstReady(d Dir) bool {
	if b.outBoundary[d] {
		return true
	}
	return b.outF[d].CanPush()
}

func (b *dynBind) deliver(fe *fastEngine, d Dir, w Word) {
	r := b.r
	r.moves++
	if b.outBoundary[d] {
		if e := b.outEdge[d]; e != nil {
			e.outBuf = append(e.outBuf, w)
		}
		return
	}
	b.outF[d].Push(w)
	if d != DirP {
		fe.wake(b.outTile[d])
	}
}

// step mirrors dynRouter.step over the resolved bindings, with one added
// early exit: a router with no active worm and no poppable input cannot
// change any state this cycle (the reference loop would scan all 25
// output×input pairs through interface calls to conclude the same).
func (b *dynBind) step(fe *fastEngine) {
	r := b.r
	if !r.lock[0].active && !r.lock[1].active && !r.lock[2].active &&
		!r.lock[3].active && !r.lock[4].active &&
		!b.canPop(0) && !b.canPop(1) && !b.canPop(2) &&
		!b.canPop(3) && !b.canPop(4) {
		return
	}
	for out := DirN; out < numDirs; out++ {
		l := &r.lock[out]
		if l.active {
			if b.canPop(l.input) && b.dstReady(out) {
				b.deliver(fe, out, b.pop(l.input))
				l.remaining--
				if l.remaining == 0 {
					l.active = false
					r.busy[l.input] = false
				}
			}
			continue
		}
		for k := 0; k < int(numDirs); k++ {
			inDir := Dir((int(r.rr[out]) + k) % int(numDirs))
			if r.busy[inDir] || !b.canPop(inDir) || b.poppedThisCycle(inDir) {
				continue
			}
			h := b.peek(inDir)
			if r.route(h) != out || !b.dstReady(out) {
				continue
			}
			b.deliver(fe, out, b.pop(inDir))
			_, _, plen := DecodeDynHeader(h)
			if plen > 0 {
				l.active = true
				l.input = inDir
				l.remaining = plen
				r.busy[inDir] = true
			}
			r.rr[out] = Dir((int(inDir) + 1) % int(numDirs))
			break
		}
	}
}
