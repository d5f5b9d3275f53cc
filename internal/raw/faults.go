package raw

// FaultPlane is the chip's view of a fault-injection schedule (implemented
// by internal/fault.Injector). The chip consults it at a handful of
// choke points; every hook is nil-guarded so an un-faulted chip pays one
// predictable branch per call site and nothing else.
//
// All methods are called from within a simulated cycle and must be
// read-only with respect to state shared across tiles: BeginCycle runs
// once per cycle on the main goroutine before any tile steps, and is the
// only place the plane may mutate global state. TileFrozen and
// LinkStalled must be pure reads of state settled in BeginCycle, so the
// order tiles step in cannot change their answers. CorruptPop and
// DropEdgeWord may keep per-link mutable state: each static link has
// exactly one popping tile and edge pushes happen between cycles, so a
// per-(tile,dir,net) counter has a single writer.
type FaultPlane interface {
	// BeginCycle advances the schedule to the given cycle.
	BeginCycle(cycle int64)
	// TileFrozen reports whether the whole tile (processor, switches,
	// routers, cache) skips this cycle.
	TileFrozen(tile int) bool
	// LinkStalled reports whether the static link that feeds tile's input
	// queue from direction d on the given network refuses transfer this
	// cycle. Both endpoints observe the stall: the reader cannot pop and
	// the upstream writer cannot push.
	LinkStalled(tile int, d Dir, net int) bool
	// CorruptPop may flip bits in a word as the switch pops it from
	// tile's input queue from direction d.
	CorruptPop(tile int, d Dir, net int, w Word) Word
	// DropEdgeWord reports whether the next word pushed into tile's
	// boundary static input from direction d is lost at the pins.
	DropEdgeWord(tile int, d Dir, net int) bool
	// DRAMPenalty returns extra DRAM latency cycles in force this cycle.
	DRAMPenalty() int
}

// InstallFaults attaches a fault schedule to the chip. Passing nil removes
// it. Must be called between cycles.
func (c *Chip) InstallFaults(fp FaultPlane) {
	c.faults = fp
	c.invalidateFast()
}

// Faults returns the installed fault plane, or nil.
func (c *Chip) Faults() FaultPlane { return c.faults }

// FaultDRAMPenalty returns the extra DRAM latency in force this cycle
// (0 with no fault plane installed). Memory controllers add it to their
// configured access latency.
func (c *Chip) FaultDRAMPenalty() int {
	if c.faults == nil {
		return 0
	}
	return c.faults.DRAMPenalty()
}

// SetCycleHook registers a callback invoked at the end of every Step,
// after all queue commits and device ticks, with the cycle just
// simulated. The router's watchdog supervisor hangs off this hook; it
// runs on the main goroutine and may safely reconfigure the chip.
func (c *Chip) SetCycleHook(f func(cycle int64)) { c.cycleHook = f }
