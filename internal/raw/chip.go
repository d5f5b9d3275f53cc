package raw

import "fmt"

// Config describes a simulated Raw chip.
type Config struct {
	// Width and Height of the tile mesh. The prototype is 4x4 (§3.1);
	// larger fabrics model the multi-chip scaling of §8.5.
	Width, Height int
	// ClockHz converts cycle counts to time; the prototype target is
	// 250 MHz.
	ClockHz float64
	// Tracer, if non-nil, receives per-tile per-cycle states.
	Tracer Tracer
	// Engine selects the cycle-stepping implementation (see Engine); the
	// zero value is the reference interpreter.
	Engine Engine
}

// DefaultConfig returns the 4x4, 250 MHz prototype configuration.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, ClockHz: DefaultClockHz}
}

// DynDevice is an off-chip device attached to a boundary dynamic-network
// link (a memory controller, a line card DMA engine). Tick is called once
// per cycle with the words that exited the chip on that link this cycle;
// the returned words are injected into the chip on the same link (framed
// messages, header first).
type DynDevice interface {
	Tick(cycle int64, arrived []Word) (inject []Word)
}

type dynBinding struct {
	tile   int
	dir    Dir
	net    int
	dev    DynDevice
	outBuf []Word
	in     *unboundedFIFO
	// quiescer is dev's DeviceQuiescer, resolved once at attach time so
	// the macro-step gate is a direct call, not a per-cycle assertion.
	// nil when the device makes no quiescence promise.
	quiescer DeviceQuiescer
}

// Chip is a simulated Raw processor.
type Chip struct {
	cfg   Config
	tiles []*Tile
	cycle int64

	bounded  []*fifo
	edges    []*unboundedFIFO
	bindings []*dynBinding

	staticIn map[[3]int]*StaticIn

	// dynEdgeSinks buffers words leaving the chip on boundary dynamic
	// links, keyed by tile, dir and network, until the attached device's
	// Tick (or forever, if no device is attached).
	dynEdgeSinks map[[3]int]*dynBinding

	// faults, when non-nil, is the installed fault-injection schedule
	// (see FaultPlane). Consulted at the top of Step and inside the
	// static-network transfer predicates.
	faults FaultPlane

	// cycleHook, when non-nil, runs at the end of every Step (see
	// SetCycleHook). Its presence disarms macro-stepping; supervisors
	// that can batch their observation register a StepHook instead.
	cycleHook func(cycle int64)

	// stepHooks are the capability-scoped observation hooks (see
	// AddStepHook): each declares its next due cycle, so macro windows
	// can cover the gaps between observations.
	stepHooks []StepHook

	// rec, when non-nil, logs external static-input pushes so the chip
	// can checkpoint by record-replay (see snapshot.go).
	rec *recorder

	// engine selects the cycle-stepping implementation; fe is the fast
	// engine's derived state (compiled bindings, skip list), rebuilt on
	// demand when feDirty (see engine.go, fast.go).
	engine  Engine
	fe      *fastEngine
	feDirty bool
	// macro-step engagement counters (see MacroStats) and the per-cause
	// disarm histogram (see MacroDisarms).
	macroWindows int64
	macroCycles  int64
	macroDisarms [NumMacroCauses]int64

	// fifoSlab backs every bounded fifo on the chip in one contiguous
	// allocation (index-addressed ring buffers): the per-cycle commit
	// sweep and the fast engine's bindings then walk adjacent memory
	// instead of pointer-chasing 400+ individual allocations. Sized
	// exactly in NewChip; c.fifo falls back to individual allocation if
	// the estimate is ever short (never, by construction), because
	// growing the slab would move live pointers.
	fifoSlab []fifo
}

// NewChip builds a chip. Every boundary static link gets an input queue
// (push via StaticIn) and an output sink (drain via StaticOut); dynamic
// boundary links are inert until a DynDevice is attached.
func NewChip(cfg Config) *Chip {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("raw: chip must have positive dimensions")
	}
	if cfg.ClockHz == 0 {
		cfg.ClockHz = DefaultClockHz
	}
	c := &Chip{
		cfg:          cfg,
		engine:       cfg.Engine,
		staticIn:     make(map[[3]int]*StaticIn),
		dynEdgeSinks: make(map[[3]int]*dynBinding),
	}
	n := cfg.Width * cfg.Height
	// Pre-size the fifo slab: per tile, 5 processor<->switch queues per
	// static net plus recv and the inject queue per dynamic net; per
	// internal directed link, one input queue per network.
	perTile := NumStaticNets*5 + numDynNets*2
	internalLinks := 2 * ((cfg.Width-1)*cfg.Height + cfg.Width*(cfg.Height-1))
	c.fifoSlab = make([]fifo, 0, n*perTile+internalLinks*(NumStaticNets+numDynNets))
	c.tiles = make([]*Tile, n)
	for id := 0; id < n; id++ {
		t := &Tile{
			chip: c,
			id:   id,
			x:    id % cfg.Width,
			y:    id / cfg.Width,
		}
		for net := 0; net < NumStaticNets; net++ {
			st := &t.st[net]
			st.sw.tile = t
			st.sw.net = net
			st.csto = c.fifo(2)
			st.csti = c.fifo(4)
			st.swPC = c.fifo(1)
			st.swDone = c.fifo(1)
			st.swCount = c.fifo(1)
		}
		t.cache = newDCache(t)
		t.exec = &Exec{tile: t}
		for net := 0; net < numDynNets; net++ {
			r := &dynRouter{tile: t, net: net}
			r.recv = c.fifo(64)
			r.in[DirP] = c.fifo(4)
			t.dyn[net] = r
		}
		c.tiles[id] = t
	}
	// Wire network input queues.
	for _, t := range c.tiles {
		for d := DirN; d < DirP; d++ {
			if t.Boundary(d) {
				for net := 0; net < NumStaticNets; net++ {
					q := &unboundedFIFO{}
					c.edges = append(c.edges, q)
					t.st[net].in[d] = q
					c.staticIn[[3]int{t.id, int(d), net}] = &StaticIn{q: q, chip: c, tile: t.id, dir: d, net: net}
					t.st[net].edgeOut[d] = &EdgeSink{}
				}
				for net := 0; net < numDynNets; net++ {
					dq := &unboundedFIFO{}
					c.edges = append(c.edges, dq)
					t.dyn[net].in[d] = dq
				}
			} else {
				for net := 0; net < NumStaticNets; net++ {
					t.st[net].in[d] = c.fifo(2)
				}
				for net := 0; net < numDynNets; net++ {
					t.dyn[net].in[d] = c.fifo(2)
				}
			}
		}
	}
	return c
}

func (c *Chip) fifo(capacity int) *fifo {
	var f *fifo
	if len(c.fifoSlab) < cap(c.fifoSlab) {
		c.fifoSlab = append(c.fifoSlab, fifo{buf: make([]Word, 0, 2*capacity), cap: capacity})
		f = &c.fifoSlab[len(c.fifoSlab)-1]
	} else {
		f = newFIFO(capacity)
	}
	c.bounded = append(c.bounded, f)
	return f
}

// Tile returns tile id (row-major).
func (c *Chip) Tile(id int) *Tile { return c.tiles[id] }

// TileAt returns the tile at mesh coordinates (x, y).
func (c *Chip) TileAt(x, y int) *Tile { return c.tiles[y*c.cfg.Width+x] }

// NumTiles returns Width*Height.
func (c *Chip) NumTiles() int { return len(c.tiles) }

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Cycle returns the number of cycles simulated so far.
func (c *Chip) Cycle() int64 { return c.cycle }

// Seconds converts a cycle count to wall-clock seconds at the configured
// clock rate.
func (c *Chip) Seconds(cycles int64) float64 { return float64(cycles) / c.cfg.ClockHz }

// StaticIn returns the external input handle of a boundary link on static
// network 0.
func (c *Chip) StaticIn(tileID int, d Dir) *StaticIn { return c.StaticInOn(0, tileID, d) }

// StaticInOn returns the external input handle of a boundary link on the
// chosen static network.
func (c *Chip) StaticInOn(net, tileID int, d Dir) *StaticIn {
	in, ok := c.staticIn[[3]int{tileID, int(d), net}]
	if !ok {
		panic(fmt.Sprintf("raw: tile %d has no boundary static input to the %s", tileID, d))
	}
	return in
}

// StaticOut returns the external output sink of a boundary link on static
// network 0.
func (c *Chip) StaticOut(tileID int, d Dir) *EdgeSink { return c.StaticOutOn(0, tileID, d) }

// StaticOutOn returns the external output sink on the chosen static
// network.
func (c *Chip) StaticOutOn(net, tileID int, d Dir) *EdgeSink {
	t := c.tiles[tileID]
	if !t.Boundary(d) {
		panic(fmt.Sprintf("raw: tile %d side %s is not a chip boundary", tileID, d))
	}
	return t.st[net].edgeOut[d]
}

// AttachDynDevice connects an off-chip device to a boundary dynamic link.
func (c *Chip) AttachDynDevice(tileID int, d Dir, net int, dev DynDevice) {
	t := c.tiles[tileID]
	if !t.Boundary(d) {
		panic(fmt.Sprintf("raw: tile %d side %s is not a chip boundary", tileID, d))
	}
	b := &dynBinding{tile: tileID, dir: d, net: net, dev: dev,
		in: t.dyn[net].in[d].(*unboundedFIFO)}
	if q, ok := dev.(DeviceQuiescer); ok {
		b.quiescer = q
	}
	c.bindings = append(c.bindings, b)
	c.dynEdgeSinks[[3]int{tileID, int(d), net}] = b
	c.invalidateFast()
}

// dynEdgeOut buffers a word that left the chip on a boundary dynamic link.
func (c *Chip) dynEdgeOut(tileID int, d Dir, net int, w Word) {
	if b, ok := c.dynEdgeSinks[[3]int{tileID, int(d), net}]; ok {
		b.outBuf = append(b.outBuf, w)
	}
	// Unattached boundary links drop words, like unconnected pins.
}

// Step simulates one clock cycle in two phases. Compute: every tile (its
// processor, static switches, and dynamic routers) steps against the
// previous cycle's committed queue state, staging its pops and pushes in
// per-queue buffers. Commit: the staged operations are applied together.
// Because compute-phase reads never observe compute-phase writes, the
// cycle's outcome is independent of tile stepping order — the lockstep
// semantics of a single-clock-domain chip.
func (c *Chip) Step() {
	// Resolve fast-engine bindings before anything moves; a rebuild must
	// never land mid-cycle.
	var fe *fastEngine
	if c.engine == EngineFast {
		fe = c.ensureFast()
	}
	// Advance the fault schedule first: the per-cycle fault state must be
	// settled before any tile consults it.
	if c.faults != nil {
		c.faults.BeginCycle(c.cycle)
	}
	// Snapshot edge queues so words pushed externally since the last cycle
	// become visible this cycle. (Bounded fifos re-arm their snapshot in
	// commit; they have no external writers.)
	for _, q := range c.edges {
		q.beginCycle()
	}
	fp := c.faults
	if fe != nil {
		for i, t := range c.tiles {
			if fp != nil && fp.TileFrozen(t.id) {
				continue
			}
			if fe.asleep[i] {
				// The whole reference step of a quiescent tile is
				// one idle-state count (see tileQuiescent).
				t.exec.counts[StateIdle]++
				continue
			}
			fe.stepTile(t)
			if fe.tileQuiescent(t) {
				fe.asleep[i] = true
			}
		}
	} else {
		for _, t := range c.tiles {
			if fp != nil && fp.TileFrozen(t.id) {
				continue
			}
			t.step()
		}
	}
	for _, f := range c.bounded {
		f.maybeCommit()
	}
	for _, q := range c.edges {
		q.commit()
	}
	for _, b := range c.bindings {
		arrived := b.outBuf
		b.outBuf = nil
		inj := b.dev.Tick(c.cycle, arrived)
		for _, w := range inj {
			b.in.Push(w)
		}
		if len(inj) > 0 {
			c.wakeTile(b.tile)
		}
	}
	if c.cycleHook != nil {
		c.cycleHook(c.cycle)
	}
	for _, h := range c.stepHooks {
		h.Tick(c.cycle)
	}
	if c.cfg.Tracer != nil {
		for _, t := range c.tiles {
			// Combined tile state — the utilization semantics of the
			// paper's Figure 7-3: a tile is busy when its processor or
			// its switch moves work, blocked (gray) when either wants to
			// move work and cannot, idle otherwise.
			st := t.exec.state
			moved := t.st[0].sw.movedNow || t.st[1].sw.movedNow
			stalled := t.st[0].sw.stalledNow || t.st[1].sw.stalledNow
			switch {
			case moved || st == StateRun:
				st = StateRun
			case st.Blocked():
				// keep the processor's stall flavor
			case stalled:
				st = StateStallRecv
			}
			c.cfg.Tracer.Record(c.cycle, t.id, st)
		}
	}
	c.cycle++
}

// Run simulates n cycles. Under the fast engine, eligible steady-state
// streaming windows advance many cycles per dispatch (see macro.go);
// RunUntil never macro-steps, since its predicate observes every cycle.
func (c *Chip) Run(n int64) {
	if c.engine == EngineFast {
		for done := int64(0); done < n; {
			if k := c.tryMacroStep(n - done); k > 0 {
				done += k
				continue
			}
			c.Step()
			done++
		}
		return
	}
	for i := int64(0); i < n; i++ {
		c.Step()
	}
}

// RunUntil steps the chip until pred returns true or the cycle budget is
// exhausted; it reports whether pred was satisfied.
func (c *Chip) RunUntil(pred func() bool, budget int64) bool {
	for i := int64(0); i < budget; i++ {
		if pred() {
			return true
		}
		c.Step()
	}
	return pred()
}
