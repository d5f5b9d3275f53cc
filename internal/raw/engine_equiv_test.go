// Equivalence tests for the compiled fast engine: a chip stepped under
// raw.EngineFast must be bit-for-bit identical to the reference
// interpreter — same edge words with the same cycle stamps, same switch
// and processor counters, same per-cycle trace — across message-passing
// workloads, streaming steady states (where the macro-step engages),
// reconfiguration, checkpoint/restore, and engine switches mid-run.
package raw_test

import (
	"strings"
	"testing"

	"repro/internal/raw"
)

// runEngine rebuilds a workload and runs it to completion under the
// given engine, returning the run and its fingerprint.
func runEngine(build func(int64) *workloadRun, cycles int64, eng raw.Engine) (*workloadRun, string) {
	r := build(cycles)
	r.chip.SetEngine(eng)
	r.run(cycles)
	return r, fingerprint(r)
}

// TestFastEngineMatchesReference diffs the full observable outcome of
// the three shared workloads (dynamic traffic, cache misses through the
// memory network, static multicast) between the engines.
func TestFastEngineMatchesReference(t *testing.T) {
	const cycles = 3000
	builders := map[string]func(int64) *workloadRun{
		"uniform":   buildUniform,
		"hotspot":   buildHotspot,
		"multicast": buildMulticast,
	}
	for name, build := range builders {
		ref, want := runEngine(build, cycles, raw.EngineRef)
		var progress raw.Word
		for _, d := range ref.digest {
			progress |= d
		}
		if progress == 0 {
			t.Fatalf("workload %s moved no data; the equivalence check would be vacuous", name)
		}
		if _, got := runEngine(build, cycles, raw.EngineFast); got != want {
			t.Fatalf("%s: fast engine diverged from reference\n%s", name, firstDiff(want, got))
		}
	}
}

// TestEngineSwitchMidRun alternates engines every 100 cycles; the result
// must match a pure reference run, proving the engines share all
// simulated state with identical transition functions.
func TestEngineSwitchMidRun(t *testing.T) {
	const cycles = 2000
	_, want := runEngine(buildUniform, cycles, raw.EngineRef)
	r := buildUniform(cycles)
	eng := raw.EngineRef
	for c := int64(0); c < cycles; c += driveStep {
		if r.drive != nil {
			r.drive(c)
		}
		if c%100 == 0 {
			if eng == raw.EngineRef {
				eng = raw.EngineFast
			} else {
				eng = raw.EngineRef
			}
			r.chip.SetEngine(eng)
		}
		r.chip.Run(driveStep)
	}
	if got := fingerprint(r); got != want {
		t.Fatalf("mid-run engine switching diverged from reference\n%s", firstDiff(want, got))
	}
}

// streamChip programs a macro-friendly streaming workload of
// one-instruction SwJump self-loops (the macro-step's target regime):
// row 0 forwards W->E to the east edge, row 1 multicasts each west-edge
// word both E and S (fanout inside the window), and row 2 turns the
// southbound copies straight out the south edge with N->S. Every
// produced word is consumed, so once the pipeline fills, no switch
// stalls and the whole chip is macro-eligible. Row 3 stays unprogrammed
// and halts on its first cycle.
func streamChip(eng raw.Engine) *raw.Chip {
	cfg := raw.DefaultConfig()
	cfg.Engine = eng
	chip := raw.NewChip(cfg)
	for x := 0; x < 4; x++ {
		progs := [][]raw.Route{
			{{Dst: raw.DirE, Src: raw.DirW}},
			{{Dst: raw.DirE, Src: raw.DirW}, {Dst: raw.DirS, Src: raw.DirW}},
			{{Dst: raw.DirS, Src: raw.DirN}},
		}
		for y, routes := range progs {
			if err := chip.TileAt(x, y).SetSwitchProgram(routeAll(routes...)); err != nil {
				panic(err)
			}
		}
	}
	return chip
}

func streamFingerprint(chip *raw.Chip) string {
	r := &workloadRun{chip: chip, digest: make([]raw.Word, chip.NumTiles())}
	return fingerprint(r)
}

// TestFastEngineStreamingSteadyState runs the streaming workload with a
// deep edge backlog — the regime where the macro-step advances thousands
// of cycles per dispatch — in several Run slices with fresh backlog
// between slices, and requires the full fingerprint (edge words, exit
// cycles, stall/move counters) to match single-cycle reference stepping.
func TestFastEngineStreamingSteadyState(t *testing.T) {
	run := func(eng raw.Engine) string {
		chip := streamChip(eng)
		w := raw.Word(1)
		for slice := 0; slice < 4; slice++ {
			for y := 0; y < 3; y++ {
				in := chip.StaticIn(chip.TileAt(0, y).ID(), raw.DirW)
				for i := 0; i < 700; i++ {
					in.Push(w)
					w++
				}
			}
			chip.Run(1500)
		}
		chip.Run(5000) // drain, then idle: the whole chip goes quiescent
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("streaming steady state diverged\n%s", firstDiff(want, got))
	}
	if !strings.Contains(want, "edge") {
		t.Fatal("workload produced no edge output; test is vacuous")
	}
}

// TestFastEngineStreamingRunSlicing: macro windows must not depend on
// how Run is sliced — 1×6000 cycles, 6000×1, and ragged slices must all
// land in the same state, and RunUntil (which may not macro-step, its
// predicate observes every cycle) must agree.
func TestFastEngineStreamingRunSlicing(t *testing.T) {
	build := func() *raw.Chip {
		chip := streamChip(raw.EngineFast)
		for y := 0; y < 3; y++ {
			in := chip.StaticIn(chip.TileAt(0, y).ID(), raw.DirW)
			for i := 0; i < 2000; i++ {
				in.Push(raw.Word(1000 + i))
			}
		}
		return chip
	}
	ref := build()
	ref.SetEngine(raw.EngineRef)
	ref.Run(6000)
	want := streamFingerprint(ref)

	one := build()
	one.Run(6000)
	if got := streamFingerprint(one); got != want {
		t.Fatalf("single Run(6000) diverged\n%s", firstDiff(want, got))
	}
	single := build()
	for i := 0; i < 6000; i++ {
		single.Run(1)
	}
	if got := streamFingerprint(single); got != want {
		t.Fatalf("6000x Run(1) diverged\n%s", firstDiff(want, got))
	}
	ragged := build()
	for _, n := range []int64{1, 7, 93, 899, 1500, 2500, 1000} {
		ragged.Run(n)
	}
	if got := streamFingerprint(ragged); got != want {
		t.Fatalf("ragged Run slices diverged\n%s", firstDiff(want, got))
	}
	until := build()
	cells := 0
	until.RunUntil(func() bool { cells++; return false }, 6000)
	if got := streamFingerprint(until); got != want {
		t.Fatalf("RunUntil diverged\n%s", firstDiff(want, got))
	}
	// pred runs before each of the 6000 steps plus once after the budget.
	if cells != 6001 {
		t.Fatalf("RunUntil predicate ran %d times, want 6001 (must observe every cycle)", cells)
	}
}

// TestFastEngineBackpressure pipes a row into a tile whose switch halted
// on cycle one (unprogrammed): upstream queues fill, every switch in the
// row stalls, and the macro-step must keep refusing the window while the
// fast per-cycle path reproduces the reference stall accounting exactly.
func TestFastEngineBackpressure(t *testing.T) {
	run := func(eng raw.Engine) string {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		for x := 0; x < 3; x++ { // tile (3,0) left unprogrammed: halts, never pops
			if err := chip.TileAt(x, 0).SetSwitchProgram(
				routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW})); err != nil {
				panic(err)
			}
		}
		in := chip.StaticIn(0, raw.DirW)
		for i := 0; i < 300; i++ {
			in.Push(raw.Word(i * 5))
		}
		chip.Run(2000)
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("backpressured pipeline diverged\n%s", firstDiff(want, got))
	}
}

// TestFastEngineCheckpointCrossRestore: a checkpoint written under one
// engine must restore under the other. RestoreSnapshot replays the input
// log through the restoring chip's own engine and verifies the state
// digest word for word, so a passing cross restore is itself a
// bit-for-bit equivalence proof; the continued runs must then agree too.
func TestFastEngineCheckpointCrossRestore(t *testing.T) {
	build := func(eng raw.Engine) *raw.Chip {
		chip := streamChip(eng)
		if err := chip.EnableRecording(); err != nil {
			t.Fatal(err)
		}
		return chip
	}
	for _, dir := range []struct {
		name     string
		from, to raw.Engine
	}{
		{"fast->ref", raw.EngineFast, raw.EngineRef},
		{"ref->fast", raw.EngineRef, raw.EngineFast},
	} {
		src := build(dir.from)
		for y := 0; y < 3; y++ {
			in := src.StaticIn(src.TileAt(0, y).ID(), raw.DirW)
			for i := 0; i < 900; i++ {
				in.Push(raw.Word(7 + i*3))
			}
		}
		src.Run(2500)
		blob, err := src.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", dir.name, err)
		}
		dst := build(dir.to)
		if err := dst.RestoreSnapshot(blob); err != nil {
			t.Fatalf("%s: cross-engine restore rejected: %v", dir.name, err)
		}
		if dst.Cycle() != src.Cycle() {
			t.Fatalf("%s: restored cycle %d, want %d", dir.name, dst.Cycle(), src.Cycle())
		}
		src.Run(2000)
		dst.Run(2000)
		want, got := streamFingerprint(src), streamFingerprint(dst)
		if got != want {
			t.Fatalf("%s: continuation diverged after cross-engine restore\n%s",
				dir.name, firstDiff(want, got))
		}
	}
}

// routeVChip programs tile 0 with a variable-count route W->N followed by
// a notify, loads count words into the count register via firmware, and
// feeds the west edge.
func routeVChip(eng raw.Engine, count raw.Word, feed int) (*raw.Chip, *bool) {
	cfg := raw.DefaultConfig()
	cfg.Engine = eng
	chip := raw.NewChip(cfg)
	if err := chip.Tile(0).SetSwitchProgram([]raw.SwInstr{
		{Op: raw.SwRouteV, Routes: []raw.Route{{Dst: raw.DirN, Src: raw.DirW}}},
		{Op: raw.SwNotify, Arg: 1},
		{Op: raw.SwHalt},
	}); err != nil {
		panic(err)
	}
	done := new(bool)
	chip.Tile(0).Exec().SetFirmware(&fwSteps{once: func(e *raw.Exec) {
		e.WriteSwitchCount(func() raw.Word { return count })
		e.WaitSwitchDone(func(raw.Word) { *done = true })
	}})
	in := chip.StaticIn(0, raw.DirW)
	for i := 0; i < feed; i++ {
		in.Push(raw.Word(100 + i))
	}
	return chip, done
}

// TestSwitchRouteVZeroCountBothEngines: a zero in the count register must
// route nothing and fall straight through to the notify, identically on
// both engines.
func TestSwitchRouteVZeroCountBothEngines(t *testing.T) {
	for _, eng := range []raw.Engine{raw.EngineRef, raw.EngineFast} {
		chip, done := routeVChip(eng, 0, 10)
		chip.Run(40)
		words, _ := chip.StaticOut(0, raw.DirN).Drain()
		if len(words) != 0 {
			t.Fatalf("%v: zero-count routev moved %d words, want 0", eng, len(words))
		}
		if !*done {
			t.Fatalf("%v: switch never notified after zero-count routev", eng)
		}
	}
}

// TestSwitchRouteVLargeCountBothEngines drives a count much larger than
// any queue capacity (every interior fifo wraps its ring repeatedly) and
// checks word-for-word, stamp-for-stamp agreement plus the exact moved
// count and stream position on both engines.
func TestSwitchRouteVLargeCountBothEngines(t *testing.T) {
	const n = 2500
	run := func(eng raw.Engine) ([]raw.Word, []int64, int64, int64, bool) {
		chip, done := routeVChip(eng, n, n+50)
		chip.Run(3 * n)
		words, at := chip.StaticOut(0, raw.DirN).Drain()
		return words, at, chip.Tile(0).Switch().Moves(), chip.StaticIn(0, raw.DirW).Consumed(), *done
	}
	rw, rat, rm, rc, rdone := run(raw.EngineRef)
	fw, fat, fm, fc, fdone := run(raw.EngineFast)
	if len(rw) != n || !rdone {
		t.Fatalf("reference moved %d words (done=%v), want %d", len(rw), rdone, n)
	}
	if len(fw) != len(rw) || fm != rm || fc != rc || fdone != rdone {
		t.Fatalf("fast engine: %d words, %d moves, %d consumed, done=%v; ref: %d, %d, %d, %v",
			len(fw), fm, fc, fdone, len(rw), rm, rc, rdone)
	}
	for i := range rw {
		if rw[i] != fw[i] || rat[i] != fat[i] {
			t.Fatalf("word %d: fast %d@%d, ref %d@%d", i, fw[i], fat[i], rw[i], rat[i])
		}
	}
}

// TestFastEngineRingWraparound hammers one bounded link with bursts sized
// around the fifo capacity so the ring's head/tail cross the compaction
// threshold at every phase relative to the burst, on both engines.
func TestFastEngineRingWraparound(t *testing.T) {
	run := func(eng raw.Engine) string {
		cfg := raw.DefaultConfig()
		cfg.Engine = eng
		chip := raw.NewChip(cfg)
		for x := 0; x < 4; x++ {
			if err := chip.TileAt(x, 0).SetSwitchProgram(
				routeAll(raw.Route{Dst: raw.DirE, Src: raw.DirW})); err != nil {
				panic(err)
			}
		}
		in := chip.StaticIn(0, raw.DirW)
		w := raw.Word(1)
		// Burst sizes sweep 1..13 across every alignment of the ring.
		for burst := 1; burst <= 13; burst++ {
			for rep := 0; rep < 7; rep++ {
				for i := 0; i < burst; i++ {
					in.Push(w)
					w++
				}
				chip.Run(int64(1 + (burst+rep)%5))
			}
		}
		chip.Run(800) // drain
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("ring wraparound diverged\n%s", firstDiff(want, got))
	}
}

// TestFastEngineReprogramMidRun exercises binding invalidation: after a
// streaming phase, tiles are reprogrammed (ResetStatic + new programs,
// including a pre-compiled install) and streamed again; both engines
// must agree across the reconfiguration.
func TestFastEngineReprogramMidRun(t *testing.T) {
	run := func(eng raw.Engine) string {
		chip := streamChip(eng)
		in := chip.StaticIn(0, raw.DirW)
		for i := 0; i < 500; i++ {
			in.Push(raw.Word(i))
		}
		chip.Run(1200)
		// Repurpose the fabric: row 0 turns west-edge words south and rows
		// 1-2 relay them N->S, so phase-two words exit the south edge
		// instead of the east one. Row 0 installs a pre-compiled program
		// (the router codegen path); row 1 goes through SetSwitchProgram.
		cpTurn := raw.MustCompileProgram(routeAll(raw.Route{Dst: raw.DirS, Src: raw.DirW}))
		for x := 0; x < 4; x++ {
			t0 := chip.TileAt(x, 0)
			t0.ResetStatic(0)
			t0.SetCompiledSwitchProgram(cpTurn)
			t1 := chip.TileAt(x, 1)
			t1.ResetStatic(0)
			if err := t1.SetSwitchProgram(routeAll(raw.Route{Dst: raw.DirS, Src: raw.DirN})); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 400; i++ {
			in.Push(raw.Word(10000 + i))
		}
		chip.Run(1500)
		return streamFingerprint(chip)
	}
	want := run(raw.EngineRef)
	got := run(raw.EngineFast)
	if got != want {
		t.Fatalf("reprogramming mid-run diverged\n%s", firstDiff(want, got))
	}
}
