package router

import (
	"fmt"
	"sync"

	"repro/internal/raw"
	"repro/internal/rotor"
)

// This file is the third pass of the §6.4 automatic compile-time
// scheduler: it converts the minimized configuration space into static
// switch programs. Each crossbar tile's switch memory holds a short fixed
// preamble (header rotation, grant delivery, jump-table dispatch) plus one
// routine per minimized configuration. Routines are software-pipelined by
// the expansion numbers: a route whose stream originates h ring hops away
// activates h cycles late and drains h cycles later, so the ring never
// blocks on words that cannot have arrived yet (§6.2's deadlock concern).

// XbarProgram is a generated crossbar switch program plus its dispatch
// metadata.
type XbarProgram struct {
	Prog []raw.SwInstr
	// Compiled is the flattened route-table form the generator produces
	// alongside Prog. Install it with SetCompiledSwitchProgram: the
	// program is compiled once here and reinstalled as-is on every
	// degrade/restore reconfiguration.
	Compiled *raw.CompiledProgram
	// RoutineAddr[i] is the switch pc of configuration i's routine.
	RoutineAddr []raw.Word
	// NeedsCount[i] reports whether routine i reads the count register
	// (any configuration that moves words does).
	NeedsCount []bool
	// HasOut[i] reports whether routine i expects an egress header word
	// on csto ahead of the body.
	HasOut []bool
	// MaxOffset[i] is the routine's pipeline depth; the processor writes
	// count = L - MaxOffset.
	MaxOffset []int
}

// srcDir maps a Table 6.1 client to the physical input direction at a
// given crossbar tile.
func srcDir(c rotor.Client, d XbarDirs) raw.Dir {
	switch c {
	case rotor.ClIn:
		return d.In
	case rotor.ClCWPrev:
		return d.CWPrev
	case rotor.ClCCWPrev:
		return d.CCWPrev
	}
	panic("router: no source direction for client " + c.String())
}

// GenXbarProgram generates the switch program for port p's crossbar tile.
func GenXbarProgram(p int, ci *rotor.ConfigIndex) (*XbarProgram, error) {
	d := XbarDirsOf(p)
	// Fixed preamble: the headers-request/headers-send phases of Figure
	// 6-2. The local header fans out to this tile's processor and
	// clockwise-downstream; three more rotation steps deliver the other
	// tiles' headers.
	preamble := []raw.SwInstr{
		{Op: raw.SwRoute, Routes: []raw.Route{
			{Dst: d.CWNext, Src: d.In}, {Dst: raw.DirP, Src: d.In}}},
		{Op: raw.SwRoute, Routes: []raw.Route{
			{Dst: d.CWNext, Src: d.CWPrev}, {Dst: raw.DirP, Src: d.CWPrev}}},
		{Op: raw.SwRoute, Routes: []raw.Route{
			{Dst: d.CWNext, Src: d.CWPrev}, {Dst: raw.DirP, Src: d.CWPrev}}},
		{Op: raw.SwRoute, Routes: []raw.Route{
			{Dst: raw.DirP, Src: d.CWPrev}}},
		// Grant word back to the ingress (recv-config in Figure 6-2).
		{Op: raw.SwRoute, Routes: []raw.Route{{Dst: d.In, Src: raw.DirP}}},
		// Jump-table dispatch: the tile processor loads the routine pc.
		{Op: raw.SwRecvPC},
	}
	return genXbarWithPreamble(preamble, ci, d, "crossbar")
}

// GenXbarProgramDegraded generates the switch program port p's crossbar
// tile runs after the watchdog masks a dead crossbar tile out of the
// ring. The three survivors form a path, not a ring, so the header
// exchange changes shape per tile (rel = ring distance to the hole),
// using the counterclockwise links the healthy rotation never needed:
//
//	rel 1 (dead is CW-next):   own header CCW; both others arrive CW.
//	rel 2 (dead is opposite):  own header both ways; one neighbor each way,
//	                           relaying across the middle tile.
//	rel 3 (dead is CW-prev):   own header CW; both others arrive CCW.
//
// The preamble is one instruction shorter than the healthy one (three
// headers, not four); the per-configuration routines are generated
// unchanged against the fault-tolerant index, whose degraded-only
// entries the masked allocator can now reach.
func GenXbarProgramDegraded(p int, ci *rotor.ConfigIndex, dead int) (*XbarProgram, error) {
	if dead < 0 || dead > 3 || dead == p {
		return nil, fmt.Errorf("router: bad dead port %d for crossbar %d", dead, p)
	}
	d := XbarDirsOf(p)
	var exchange []raw.SwInstr
	switch (dead - p + 4) % 4 {
	case 1:
		exchange = []raw.SwInstr{
			{Op: raw.SwRoute, Routes: []raw.Route{
				{Dst: d.CCWNext, Src: d.In}, {Dst: raw.DirP, Src: d.In}}},
			{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: d.CWPrev}}},
			{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: d.CWPrev}}},
		}
	case 2:
		exchange = []raw.SwInstr{
			{Op: raw.SwRoute, Routes: []raw.Route{
				{Dst: d.CWNext, Src: d.In}, {Dst: d.CCWNext, Src: d.In},
				{Dst: raw.DirP, Src: d.In}}},
			{Op: raw.SwRoute, Routes: []raw.Route{
				{Dst: raw.DirP, Src: d.CWPrev}, {Dst: d.CWNext, Src: d.CWPrev}}},
			{Op: raw.SwRoute, Routes: []raw.Route{
				{Dst: raw.DirP, Src: d.CCWPrev}, {Dst: d.CCWNext, Src: d.CCWPrev}}},
		}
	case 3:
		exchange = []raw.SwInstr{
			{Op: raw.SwRoute, Routes: []raw.Route{
				{Dst: d.CWNext, Src: d.In}, {Dst: raw.DirP, Src: d.In}}},
			{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: d.CCWPrev}}},
			{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: d.CCWPrev}}},
		}
	}
	preamble := append(exchange,
		raw.SwInstr{Op: raw.SwRoute, Routes: []raw.Route{{Dst: d.In, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwRecvPC},
	)
	return genXbarWithPreamble(preamble, ci, d, "degraded crossbar")
}

// ParkProgram is the switch program installed on a failed port's tiles:
// it blocks forever on a processor pc write that never comes, consuming
// nothing from its neighbors.
func ParkProgram() []raw.SwInstr {
	return []raw.SwInstr{{Op: raw.SwRecvPC}}
}

// genXbarWithPreamble appends one software-pipelined routine per
// configuration in ci after the given preamble.
func genXbarWithPreamble(preamble []raw.SwInstr, ci *rotor.ConfigIndex, d XbarDirs, what string) (*XbarProgram, error) {
	xp := &XbarProgram{
		Prog:        preamble,
		RoutineAddr: make([]raw.Word, ci.Len()),
		NeedsCount:  make([]bool, ci.Len()),
		HasOut:      make([]bool, ci.Len()),
		MaxOffset:   make([]int, ci.Len()),
	}

	for i := 0; i < ci.Len(); i++ {
		k := ci.Key(i)
		xp.RoutineAddr[i] = raw.Word(len(xp.Prog))

		type timedRoute struct {
			r   raw.Route
			off int
		}
		var routes []timedRoute
		if k.Out != rotor.ClNone {
			routes = append(routes, timedRoute{
				raw.Route{Dst: d.Out, Src: srcDir(k.Out, d)}, int(k.OutHops)})
			xp.HasOut[i] = true
			// Egress header word precedes the body on the out link.
			xp.Prog = append(xp.Prog, raw.SwInstr{Op: raw.SwRoute,
				Routes: []raw.Route{{Dst: d.Out, Src: raw.DirP}}})
		}
		if k.CWNext != rotor.ClNone {
			routes = append(routes, timedRoute{
				raw.Route{Dst: d.CWNext, Src: srcDir(k.CWNext, d)}, int(k.CWHops)})
		}
		if k.CCWNext != rotor.ClNone {
			routes = append(routes, timedRoute{
				raw.Route{Dst: d.CCWNext, Src: srcDir(k.CCWNext, d)}, int(k.CCWHops)})
		}

		if len(routes) == 0 {
			xp.Prog = append(xp.Prog,
				raw.SwInstr{Op: raw.SwNotify, Arg: raw.Word(i)},
				raw.SwInstr{Op: raw.SwJump, Arg: 0})
			continue
		}
		xp.NeedsCount[i] = true
		maxOff := 0
		for _, tr := range routes {
			if tr.off > maxOff {
				maxOff = tr.off
			}
		}
		xp.MaxOffset[i] = maxOff

		// Prologue: cycle c fires the routes whose streams have arrived
		// (offset <= c).
		for c := 0; c < maxOff; c++ {
			var rs []raw.Route
			for _, tr := range routes {
				if tr.off <= c {
					rs = append(rs, tr.r)
				}
			}
			xp.Prog = append(xp.Prog, raw.SwInstr{Op: raw.SwRoute, Routes: rs})
		}
		// Body: all routes, L-maxOff times (count from the processor).
		all := make([]raw.Route, len(routes))
		for j, tr := range routes {
			all[j] = tr.r
		}
		xp.Prog = append(xp.Prog, raw.SwInstr{Op: raw.SwRouteV, Routes: all})
		// Epilogue: cycle e drains the routes whose streams still have
		// words in flight (offset > e).
		for e := 0; e < maxOff; e++ {
			var rs []raw.Route
			for _, tr := range routes {
				if tr.off > e {
					rs = append(rs, tr.r)
				}
			}
			xp.Prog = append(xp.Prog, raw.SwInstr{Op: raw.SwRoute, Routes: rs})
		}
		xp.Prog = append(xp.Prog,
			raw.SwInstr{Op: raw.SwNotify, Arg: raw.Word(i)},
			raw.SwInstr{Op: raw.SwJump, Arg: 0})
	}

	cp, err := raw.CompileProgram(xp.Prog)
	if err != nil {
		return nil, fmt.Errorf("router: generated %s program invalid: %w", what, err)
	}
	xp.Compiled = cp
	return xp, nil
}

// Ingress switch routine addresses (see GenIngressProgram).
type IngressProgram struct {
	Prog     []raw.SwInstr
	Compiled *raw.CompiledProgram
	Acquire  raw.Word // read 5 IP header words, consult lookup
	Drop     raw.Word // drain a packet's payload to the processor (drop, or multicast buffering)
	Quantum  raw.Word // header out, grant in
	Stream1  raw.Word // first fragment: 5 header words from P, payload cut-through, padding from P
	Stream2  raw.Word // later fragment: payload cut-through, padding from P
	StreamP  raw.Word // whole stream from the processor (multicast replay, §8.6)
}

// GenIngressProgram generates port p's ingress switch program.
func GenIngressProgram(p int) (*IngressProgram, error) {
	d := IngressDirsOf(p)
	ip := &IngressProgram{}
	prog := []raw.SwInstr{{Op: raw.SwRecvPC}} // 0: dispatch

	ip.Acquire = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteN, Arg: 5, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Edge}}},
		raw.SwInstr{Op: raw.SwRoute, Routes: []raw.Route{{Dst: d.Lookup, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Lookup}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 1},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ip.Drop = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Edge}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 2},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ip.Quantum = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRoute, Routes: []raw.Route{{Dst: d.Xbar, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Xbar}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 3},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ip.Stream1 = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteN, Arg: 5, Routes: []raw.Route{{Dst: d.Xbar, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Xbar, Src: d.Edge}}},
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Xbar, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 4},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ip.Stream2 = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Xbar, Src: d.Edge}}},
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Xbar, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 5},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ip.StreamP = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Xbar, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 6},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ip.Prog = prog
	cp, err := raw.CompileProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("router: generated ingress program invalid: %w", err)
	}
	ip.Compiled = cp
	return ip, nil
}

// EgressProgram addresses (see GenEgressProgram).
type EgressProgram struct {
	Prog     []raw.SwInstr
	Compiled *raw.CompiledProgram
	Hdr      raw.Word // one egress header word to P
	Cut      raw.Word // complete packet cut-through to the pin + padding to P
	Asm      raw.Word // whole stream to P (reassembly path)
	Out      raw.Word // reassembled packet from P to the pin
	Forward  raw.Word // crypto path: stream from P to the pin and padding drain (§8.3)
}

// GenEgressProgram generates port p's egress switch program.
func GenEgressProgram(p int) (*EgressProgram, error) {
	d := EgressDirsOf(p)
	ep := &EgressProgram{}
	prog := []raw.SwInstr{{Op: raw.SwRecvPC}} // 0: dispatch

	ep.Hdr = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Xbar}}},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ep.Cut = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Edge, Src: d.Xbar}}},
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Xbar}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 1},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ep.Asm = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Xbar}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 2},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ep.Out = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Edge, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 3},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ep.Forward = raw.Word(len(prog))
	prog = append(prog,
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirP, Src: d.Xbar}}},
		raw.SwInstr{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: d.Edge, Src: raw.DirP}}},
		raw.SwInstr{Op: raw.SwNotify, Arg: 4},
		raw.SwInstr{Op: raw.SwJump, Arg: 0},
	)

	ep.Prog = prog
	cp, err := raw.CompileProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("router: generated egress program invalid: %w", err)
	}
	ep.Compiled = cp
	return ep, nil
}

// GenLookupProgram generates port p's lookup switch program: a
// request/response loop with its ingress.
func GenLookupProgram(p int) []raw.SwInstr {
	ing := LookupDirsOf(p)
	return []raw.SwInstr{
		{Op: raw.SwRoute, Routes: []raw.Route{{Dst: raw.DirP, Src: ing}}},
		{Op: raw.SwJump, Arg: 0, Routes: []raw.Route{{Dst: ing, Src: raw.DirP}}},
	}
}

// Lookup and park programs are tiny and immutable, so they are compiled
// once per process and shared: install/degrade/restore reinstall the same
// objects instead of regenerating and revalidating them each time.
var compiledLookup = sync.OnceValue(func() [4]*raw.CompiledProgram {
	var cps [4]*raw.CompiledProgram
	for p := 0; p < 4; p++ {
		cps[p] = raw.MustCompileProgram(GenLookupProgram(p))
	}
	return cps
})

// CompiledLookupProgram returns port p's lookup program in compiled form.
func CompiledLookupProgram(p int) *raw.CompiledProgram { return compiledLookup()[p] }

var compiledPark = sync.OnceValue(func() *raw.CompiledProgram {
	return raw.MustCompileProgram(ParkProgram())
})

// CompiledParkProgram returns the park program in compiled form.
func CompiledParkProgram() *raw.CompiledProgram { return compiledPark() }
