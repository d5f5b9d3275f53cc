package raw

import "fmt"

// Engine selects the chip's cycle-stepping implementation. Both engines
// simulate the same machine over the same state — every counter, queue,
// checkpoint digest, and telemetry snapshot is bit-for-bit identical —
// so the choice is purely a host-performance knob, and it may be changed
// between cycles (even mid-run: a chip stepped half under one engine and
// half under the other matches a chip stepped wholly under either).
type Engine uint8

const (
	// EngineRef is the reference interpreter: it walks []SwInstr route
	// slices and dispatches queue operations through interfaces every
	// cycle. It is the oracle the fast engine is verified against.
	EngineRef Engine = iota
	// EngineFast is the compiled engine: switch programs are flattened
	// into dense per-pc route tables at install time, queue endpoints are
	// resolved to concrete ring buffers once per configuration, quiescent
	// tiles sit on a skip list, and eligible steady-state streaming loops
	// advance many cycles per dispatch (see macro.go).
	EngineFast
)

// String returns the flag spelling of the engine.
func (e Engine) String() string {
	switch e {
	case EngineRef:
		return "ref"
	case EngineFast:
		return "fast"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine parses a -engine flag value. The empty string selects the
// reference engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "ref":
		return EngineRef, nil
	case "fast":
		return EngineFast, nil
	}
	return EngineRef, fmt.Errorf("raw: unknown engine %q (have ref, fast)", s)
}

// SetEngine switches the cycle-stepping implementation. Must be called
// between cycles.
func (c *Chip) SetEngine(e Engine) {
	if c.engine == e {
		return
	}
	c.engine = e
	c.invalidateFast()
}

// Engine returns the active cycle-stepping implementation.
func (c *Chip) Engine() Engine { return c.engine }

// invalidateFast marks the fast engine's derived state (queue bindings,
// compiled-program attachments, the idle-tile skip list) stale. It is
// called by every reconfiguration entry point — reprogramming, firmware
// swaps, device attachment, fault installation — and the next fast Step
// rebuilds. Cheap enough to call unconditionally.
func (c *Chip) invalidateFast() { c.feDirty = true }

// ensureFast returns the fast engine's derived state, rebuilding it if a
// reconfiguration invalidated it. Must be called between cycles (or at
// the top of Step, before any tile moves).
func (c *Chip) ensureFast() *fastEngine {
	if c.fe == nil || c.feDirty {
		c.fe = buildFastEngine(c)
		c.feDirty = false
	}
	return c.fe
}
