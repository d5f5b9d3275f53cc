// Package fault implements deterministic, seeded fault injection for the
// simulated Raw chip. A Schedule is a list of events — link stalls and
// flaps, tile freezes and crashes, single-bit corruption on a named link,
// word drops at an edge port, DRAM latency spikes — with a compact text
// encoding so a chaos run can be named, logged, and replayed exactly.
// An Injector compiles a schedule into the raw.FaultPlane hooks the chip
// consults while stepping; the same schedule at the same seed produces a
// bit-for-bit identical simulation on either cycle engine.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/raw"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindLink stalls one static link for a window of cycles: neither
	// endpoint can transfer a word across it.
	KindLink Kind = iota
	// KindFlap repeats a link stall: Repeat windows of Dur cycles, each
	// separated by Dur cycles of healthy operation.
	KindFlap
	// KindFreeze halts an entire tile for a window of cycles; it resumes
	// with its state intact.
	KindFreeze
	// KindCrash halts a tile permanently from Start on.
	KindCrash
	// KindCorrupt flips one bit of the WordIdx-th word ever popped from
	// the named link's input queue.
	KindCorrupt
	// KindDrop loses Count consecutive words at an edge port's pins,
	// starting with the WordIdx-th word ever pushed.
	KindDrop
	// KindDRAM adds Extra cycles of DRAM latency during the window.
	KindDRAM
	// KindRestore is a recovery control, not a fault: it schedules the
	// router's Restore(port) at Start. The injector ignores it; harnesses
	// feed Schedule.Controls() to the router so a chaos run's recovery
	// actions replay as deterministically as its faults. Tile carries the
	// port number.
	KindRestore
	// KindReprobe is a recovery control like KindRestore: it forces the
	// port's ingress to probe its down line at Start, regardless of the
	// backoff schedule.
	KindReprobe
	// KindKillChip is a fabric-level control: it removes whole chip K from
	// an N-chip cluster at Start (the chip stops stepping, its trunks go
	// silent, and its external ports drop offered traffic). Like the other
	// controls the injector ignores it; cluster harnesses consume it via
	// Schedule.ChipControls(). Tile carries the chip index.
	KindKillChip
	// KindRestoreChip is the companion control: the fabric re-admits chip
	// K at Start with a freshly constructed replacement chip.
	KindRestoreChip
	// KindKillTrunk is a fabric-level control for single-link loss: the
	// trunk between chips A (Tile) and B (Chip2) goes dark at Start. Both
	// chips keep running; the fabric's healing plane (if armed) reroutes
	// around the dead link and re-drives held frames.
	KindKillTrunk
	// KindRestoreTrunk is the companion control: the trunk between Tile
	// and Chip2 comes back at Start.
	KindRestoreTrunk
)

// Encoding bounds. The parser rejects values beyond these so that a
// hostile (fuzzed) schedule cannot make the injector allocate or loop
// unboundedly.
const (
	maxTile   = 1024
	maxChip   = 1023
	maxStart  = int64(1) << 40
	maxDur    = int64(1) << 30
	maxRepeat = 1 << 20
	maxWord   = int64(1) << 40
	maxCount  = int64(1) << 30
	maxExtra  = 1 << 20
	maxEvents = 1 << 12
)

// Event is one scheduled fault.
type Event struct {
	Kind    Kind
	Start   int64 // first affected cycle (link/flap/freeze/crash/dram)
	Dur     int64 // window length in cycles
	Repeat  int   // flap: number of stall windows
	Tile    int
	Dir     raw.Dir
	Net     int   // static network (0 or 1)
	WordIdx int64 // corrupt/drop: word index on the link (cumulative)
	Count   int64 // drop: words lost
	Bit     int   // corrupt: bit flipped (0..31)
	Extra   int   // dram: added latency cycles
	Chip2   int   // killtrunk/restoretrunk: the trunk's other chip (Tile is the first)
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

var dirNames = map[string]raw.Dir{"n": raw.DirN, "e": raw.DirE, "s": raw.DirS, "w": raw.DirW}

func dirName(d raw.Dir) string {
	switch d {
	case raw.DirN:
		return "n"
	case raw.DirE:
		return "e"
	case raw.DirS:
		return "s"
	case raw.DirW:
		return "w"
	}
	return "?"
}

// String renders the schedule in the canonical text encoding accepted by
// Parse. Parse(s.String()) reproduces s exactly for any parsed s.
func (s *Schedule) String() string {
	var b strings.Builder
	for i, e := range s.Events {
		if i > 0 {
			b.WriteByte(';')
		}
		link := func() {
			fmt.Fprintf(&b, "t%d.%s", e.Tile, dirName(e.Dir))
			if e.Net != 0 {
				fmt.Fprintf(&b, ".n%d", e.Net)
			}
		}
		switch e.Kind {
		case KindLink:
			fmt.Fprintf(&b, "link@%d+%d:", e.Start, e.Dur)
			link()
		case KindFlap:
			fmt.Fprintf(&b, "flap@%d+%dx%d:", e.Start, e.Dur, e.Repeat)
			link()
		case KindFreeze:
			fmt.Fprintf(&b, "freeze@%d+%d:t%d", e.Start, e.Dur, e.Tile)
		case KindCrash:
			fmt.Fprintf(&b, "crash@%d:t%d", e.Start, e.Tile)
		case KindCorrupt:
			fmt.Fprintf(&b, "corrupt:t%d.%s.w%d.b%d", e.Tile, dirName(e.Dir), e.WordIdx, e.Bit)
			if e.Net != 0 {
				fmt.Fprintf(&b, ".n%d", e.Net)
			}
		case KindDrop:
			fmt.Fprintf(&b, "drop:t%d.%s.w%d+%d", e.Tile, dirName(e.Dir), e.WordIdx, e.Count)
			if e.Net != 0 {
				fmt.Fprintf(&b, ".n%d", e.Net)
			}
		case KindDRAM:
			fmt.Fprintf(&b, "dram@%d+%d:+%d", e.Start, e.Dur, e.Extra)
		case KindRestore:
			fmt.Fprintf(&b, "restore@%d:p%d", e.Start, e.Tile)
		case KindReprobe:
			fmt.Fprintf(&b, "reprobe@%d:p%d", e.Start, e.Tile)
		case KindKillChip:
			fmt.Fprintf(&b, "killchip@%d:c%d", e.Start, e.Tile)
		case KindRestoreChip:
			fmt.Fprintf(&b, "restorechip@%d:c%d", e.Start, e.Tile)
		case KindKillTrunk:
			fmt.Fprintf(&b, "killtrunk@%d:c%d-c%d", e.Start, e.Tile, e.Chip2)
		case KindRestoreTrunk:
			fmt.Fprintf(&b, "restoretrunk@%d:c%d-c%d", e.Start, e.Tile, e.Chip2)
		}
	}
	return b.String()
}

// Parse decodes the text encoding: events joined by ';', each one of
//
//	link@START+DUR:tT.D[.nN]       stall link for DUR cycles
//	flap@START+DURxR:tT.D[.nN]     R stall windows of DUR, DUR apart
//	freeze@START+DUR:tT            freeze tile for DUR cycles
//	crash@START:tT                 freeze tile forever
//	corrupt:tT.D.wI.bB[.nN]        flip bit B of the I-th word popped
//	drop:tT.D.wI+C[.nN]            lose C words at the pins from word I
//	dram@START+DUR:+X              add X cycles of DRAM latency
//	restore@START:pP               control: restore port P at START
//	reprobe@START:pP               control: force port P's line probe
//	killchip@START:cK              control: remove fabric chip K at START
//	restorechip@START:cK           control: re-admit fabric chip K at START
//	killtrunk@START:cA-cB          control: the A<->B trunk goes dark at START
//	restoretrunk@START:cA-cB       control: the A<->B trunk comes back at START
//
// where D is one of n/e/s/w. Empty segments are ignored, so a trailing
// ';' is harmless.
func Parse(text string) (*Schedule, error) {
	s := &Schedule{}
	for _, seg := range strings.Split(text, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if len(s.Events) >= maxEvents {
			return nil, fmt.Errorf("fault: more than %d events", maxEvents)
		}
		e, err := parseEvent(seg)
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", seg, err)
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}

// MustParse is Parse for compile-time-constant schedules.
func MustParse(text string) *Schedule {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

func parseEvent(seg string) (Event, error) {
	var e Event
	head, rest, ok := strings.Cut(seg, ":")
	if !ok {
		return e, fmt.Errorf("missing ':'")
	}
	kind, when, timed := strings.Cut(head, "@")
	switch kind {
	case "link", "flap":
		e.Kind = KindLink
		if kind == "flap" {
			e.Kind = KindFlap
		}
		if !timed {
			return e, fmt.Errorf("%s needs @start+dur", kind)
		}
		startS, durS, ok := strings.Cut(when, "+")
		if !ok {
			return e, fmt.Errorf("%s needs @start+dur", kind)
		}
		if e.Kind == KindFlap {
			var repS string
			durS, repS, ok = strings.Cut(durS, "x")
			if !ok {
				return e, fmt.Errorf("flap needs durxcount")
			}
			n, err := parseInt(repS, 1, int64(maxRepeat))
			if err != nil {
				return e, fmt.Errorf("repeat: %w", err)
			}
			e.Repeat = int(n)
		}
		var err error
		if e.Start, err = parseInt(startS, 0, maxStart); err != nil {
			return e, fmt.Errorf("start: %w", err)
		}
		if e.Dur, err = parseInt(durS, 1, maxDur); err != nil {
			return e, fmt.Errorf("dur: %w", err)
		}
		return e, parseLink(&e, rest, false, false)

	case "freeze":
		e.Kind = KindFreeze
		if !timed {
			return e, fmt.Errorf("freeze needs @start+dur")
		}
		startS, durS, ok := strings.Cut(when, "+")
		if !ok {
			return e, fmt.Errorf("freeze needs @start+dur")
		}
		var err error
		if e.Start, err = parseInt(startS, 0, maxStart); err != nil {
			return e, fmt.Errorf("start: %w", err)
		}
		if e.Dur, err = parseInt(durS, 1, maxDur); err != nil {
			return e, fmt.Errorf("dur: %w", err)
		}
		return e, parseTileOnly(&e, rest)

	case "crash":
		e.Kind = KindCrash
		if !timed {
			return e, fmt.Errorf("crash needs @start")
		}
		var err error
		if e.Start, err = parseInt(when, 0, maxStart); err != nil {
			return e, fmt.Errorf("start: %w", err)
		}
		return e, parseTileOnly(&e, rest)

	case "corrupt":
		e.Kind = KindCorrupt
		if timed {
			return e, fmt.Errorf("corrupt takes no @time")
		}
		return e, parseLink(&e, rest, true, false)

	case "drop":
		e.Kind = KindDrop
		if timed {
			return e, fmt.Errorf("drop takes no @time")
		}
		return e, parseLink(&e, rest, false, true)

	case "dram":
		e.Kind = KindDRAM
		if !timed {
			return e, fmt.Errorf("dram needs @start+dur")
		}
		startS, durS, ok := strings.Cut(when, "+")
		if !ok {
			return e, fmt.Errorf("dram needs @start+dur")
		}
		var err error
		if e.Start, err = parseInt(startS, 0, maxStart); err != nil {
			return e, fmt.Errorf("start: %w", err)
		}
		if e.Dur, err = parseInt(durS, 1, maxDur); err != nil {
			return e, fmt.Errorf("dur: %w", err)
		}
		extraS, ok := strings.CutPrefix(rest, "+")
		if !ok {
			return e, fmt.Errorf("dram needs :+extra")
		}
		n, err := parseInt(extraS, 1, int64(maxExtra))
		if err != nil {
			return e, fmt.Errorf("extra: %w", err)
		}
		e.Extra = int(n)
		return e, nil

	case "restore", "reprobe":
		e.Kind = KindRestore
		if kind == "reprobe" {
			e.Kind = KindReprobe
		}
		if !timed {
			return e, fmt.Errorf("%s needs @start", kind)
		}
		var err error
		if e.Start, err = parseInt(when, 0, maxStart); err != nil {
			return e, fmt.Errorf("start: %w", err)
		}
		portS, ok := strings.CutPrefix(rest, "p")
		if !ok {
			return e, fmt.Errorf("%s needs :pPORT", kind)
		}
		n, err := parseInt(portS, 0, 3)
		if err != nil {
			return e, fmt.Errorf("port: %w", err)
		}
		e.Tile = int(n)
		return e, nil

	case "killchip", "restorechip":
		e.Kind = KindKillChip
		if kind == "restorechip" {
			e.Kind = KindRestoreChip
		}
		if !timed {
			return e, fmt.Errorf("%s needs @start", kind)
		}
		var err error
		if e.Start, err = parseInt(when, 0, maxStart); err != nil {
			return e, fmt.Errorf("start: %w", err)
		}
		chipS, ok := strings.CutPrefix(rest, "c")
		if !ok {
			return e, fmt.Errorf("%s needs :cCHIP", kind)
		}
		n, err := parseInt(chipS, 0, maxChip)
		if err != nil {
			return e, fmt.Errorf("chip: %w", err)
		}
		e.Tile = int(n)
		return e, nil

	case "killtrunk", "restoretrunk":
		e.Kind = KindKillTrunk
		if kind == "restoretrunk" {
			e.Kind = KindRestoreTrunk
		}
		if !timed {
			return e, fmt.Errorf("%s needs @start", kind)
		}
		var err error
		if e.Start, err = parseInt(when, 0, maxStart); err != nil {
			return e, fmt.Errorf("start: %w", err)
		}
		aS, bS, ok := strings.Cut(rest, "-")
		if !ok {
			return e, fmt.Errorf("%s needs :cA-cB", kind)
		}
		aS, okA := strings.CutPrefix(aS, "c")
		bS, okB := strings.CutPrefix(bS, "c")
		if !okA || !okB {
			return e, fmt.Errorf("%s needs :cA-cB", kind)
		}
		a, err := parseInt(aS, 0, maxChip)
		if err != nil {
			return e, fmt.Errorf("chip A: %w", err)
		}
		b, err := parseInt(bS, 0, maxChip)
		if err != nil {
			return e, fmt.Errorf("chip B: %w", err)
		}
		e.Tile = int(a)
		e.Chip2 = int(b)
		return e, nil
	}
	return e, fmt.Errorf("unknown fault kind %q", kind)
}

// parseLink decodes tT.D[.wI.bB | .wI+C][.nN] operand lists.
func parseLink(e *Event, rest string, wantBit, wantCount bool) error {
	parts := strings.Split(rest, ".")
	if len(parts) < 2 {
		return fmt.Errorf("need tTILE.DIR")
	}
	tileS, ok := strings.CutPrefix(parts[0], "t")
	if !ok {
		return fmt.Errorf("need tTILE")
	}
	n, err := parseInt(tileS, 0, maxTile)
	if err != nil {
		return fmt.Errorf("tile: %w", err)
	}
	e.Tile = int(n)
	d, ok := dirNames[parts[1]]
	if !ok {
		return fmt.Errorf("bad direction %q", parts[1])
	}
	e.Dir = d
	parts = parts[2:]
	if wantBit || wantCount {
		if len(parts) == 0 || !strings.HasPrefix(parts[0], "w") {
			return fmt.Errorf("need .wINDEX")
		}
		wS := parts[0][1:]
		parts = parts[1:]
		if wantCount {
			idxS, cntS, ok := strings.Cut(wS, "+")
			if !ok {
				return fmt.Errorf("drop needs .wINDEX+COUNT")
			}
			if e.WordIdx, err = parseInt(idxS, 0, maxWord); err != nil {
				return fmt.Errorf("word: %w", err)
			}
			if e.Count, err = parseInt(cntS, 1, maxCount); err != nil {
				return fmt.Errorf("count: %w", err)
			}
		} else {
			if e.WordIdx, err = parseInt(wS, 0, maxWord); err != nil {
				return fmt.Errorf("word: %w", err)
			}
			if len(parts) == 0 || !strings.HasPrefix(parts[0], "b") {
				return fmt.Errorf("corrupt needs .bBIT")
			}
			b, err := parseInt(parts[0][1:], 0, 31)
			if err != nil {
				return fmt.Errorf("bit: %w", err)
			}
			e.Bit = int(b)
			parts = parts[1:]
		}
	}
	if len(parts) > 0 {
		netS, ok := strings.CutPrefix(parts[0], "n")
		if !ok || len(parts) > 1 {
			return fmt.Errorf("unexpected trailing %q", strings.Join(parts, "."))
		}
		n, err := parseInt(netS, 0, int64(raw.NumStaticNets-1))
		if err != nil {
			return fmt.Errorf("net: %w", err)
		}
		e.Net = int(n)
	}
	return nil
}

func parseTileOnly(e *Event, rest string) error {
	tileS, ok := strings.CutPrefix(rest, "t")
	if !ok {
		return fmt.Errorf("need tTILE")
	}
	n, err := parseInt(tileS, 0, maxTile)
	if err != nil {
		return fmt.Errorf("tile: %w", err)
	}
	e.Tile = int(n)
	return nil
}

func parseInt(s string, min, max int64) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if v < min || v > max {
		return 0, fmt.Errorf("%d out of range [%d,%d]", v, min, max)
	}
	return v, nil
}

// Controls returns the schedule's recovery-control events (KindRestore,
// KindReprobe) in start order. They are not faults — the injector skips
// them — so a harness forwards them to the router (ScheduleRestore,
// ScheduleReprobe) to replay a chaos run's recovery actions.
func (s *Schedule) Controls() []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Kind == KindRestore || e.Kind == KindReprobe {
			out = append(out, e)
		}
	}
	return sortEvents(out)
}

// ChipControls returns the schedule's fabric-level controls
// (KindKillChip, KindRestoreChip, KindKillTrunk, KindRestoreTrunk) in
// start order. Like Controls they are not chip faults — the injector
// skips them — so an N-chip cluster harness consumes them
// (cluster.Fabric.ApplySchedule) to replay a chip-loss or trunk-loss
// run's kill and re-admission deterministically.
func (s *Schedule) ChipControls() []Event {
	var out []Event
	for _, e := range s.Events {
		switch e.Kind {
		case KindKillChip, KindRestoreChip, KindKillTrunk, KindRestoreTrunk:
			out = append(out, e)
		}
	}
	return sortEvents(out)
}

// sortEvents orders timed events by start cycle (stable, so equal starts
// keep schedule order); untimed taps keep their relative order too.
func sortEvents(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
