// Seeded chip workloads shared by the engine equivalence tests. Three
// workloads exercise the dynamic networks (uniform and hotspot message
// traffic plus cache misses through the memory network) and both static
// networks (multicast fanout from an edge input); fingerprint renders
// the full observable state — tile state counts, switch counters, cache
// counters, firmware digests, edge outputs with timestamps, and the
// per-cycle trace — so two runs can be diffed line by line.
package raw_test

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/raw"
	"repro/internal/raw/asm"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// workloadRun is one constructed chip plus the test-visible state its
// firmware accumulates.
type workloadRun struct {
	chip   *raw.Chip
	rec    *trace.Recorder
	digest []raw.Word
	// drive, if set, pushes edge input words; called every driveStep
	// cycles so external pushes interleave with the run deterministically.
	drive func(cycle int64)
}

const driveStep = 50

func (r *workloadRun) run(cycles int64) {
	for c := int64(0); c < cycles; c += driveStep {
		if r.drive != nil {
			r.drive(c)
		}
		r.chip.Run(driveStep)
	}
}

// fingerprint renders every observable outcome of a run as text, so two
// runs can be diffed line by line.
func fingerprint(r *workloadRun) string {
	var b strings.Builder
	chip := r.chip
	fmt.Fprintf(&b, "cycle=%d\n", chip.Cycle())
	for i := 0; i < chip.NumTiles(); i++ {
		t := chip.Tile(i)
		hits, misses := t.CacheStats()
		fmt.Fprintf(&b, "tile%d states=%v cache=%d/%d digest=%d retired... ", i, t.Exec().StateCounts(), hits, misses, r.digest[i])
		for net := 0; net < raw.NumStaticNets; net++ {
			sw := t.SwitchOn(net)
			fmt.Fprintf(&b, " sw%d=moves:%d,stalls:%d,pc:%d,halted:%v", net, sw.Moves(), sw.Stalls(), sw.PC(), sw.Halted())
		}
		b.WriteByte('\n')
	}
	for i := 0; i < chip.NumTiles(); i++ {
		for _, d := range []raw.Dir{raw.DirN, raw.DirE, raw.DirS, raw.DirW} {
			if !chip.Tile(i).Boundary(d) {
				continue
			}
			for net := 0; net < raw.NumStaticNets; net++ {
				words, at := chip.StaticOutOn(net, i, d).Drain()
				if len(words) == 0 {
					continue
				}
				fmt.Fprintf(&b, "edge tile%d %s net%d: %v @ %v\n", i, d, net, words, at)
			}
		}
	}
	if r.rec != nil {
		tiles := make([]int, chip.NumTiles())
		for i := range tiles {
			tiles[i] = i
		}
		b.WriteString(r.rec.CSV(tiles))
	}
	return b.String()
}

// firstDiff locates the first line where two fingerprints diverge.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(w), len(g))
}

// tracedChip builds a 4x4 chip with a recorder attached for the window
// [0, cycles).
func tracedChip(cycles int64) (*raw.Chip, *trace.Recorder) {
	rec := trace.NewRecorder(16, 0, cycles)
	cfg := raw.DefaultConfig()
	cfg.Tracer = rec
	return raw.NewChip(cfg), rec
}

// buildUniform: even tiles stream seeded 4-word messages to seeded odd
// destinations on the general dynamic network and do seeded cache
// writes/reads (driving the memory network to DRAM); odd tiles digest the
// messages and issue their own cache reads.
func buildUniform(cycles int64) *workloadRun {
	chip, rec := tracedChip(cycles)
	mem.Attach(chip, 20)
	r := &workloadRun{chip: chip, rec: rec, digest: make([]raw.Word, 16)}
	for id := 0; id < 16; id++ {
		id := id
		exec := chip.Tile(id).Exec()
		if id%2 == 0 {
			rng := traffic.NewRNG(0xA11CE0 + uint64(id))
			exec.SetFirmware(raw.FirmwareFunc(func(e *raw.Exec) {
				dst := 2*rng.Intn(8) + 1 // some odd tile
				msg := []raw.Word{raw.DynHeaderTag(dst%4, dst/4, 3, raw.Word(id))}
				for k := 0; k < 3; k++ {
					msg = append(msg, raw.Word(rng.Uint64()))
				}
				e.DynSend(raw.DynGeneral, func() []raw.Word { return msg })
				e.Compute(1 + rng.Intn(3))
				addr := raw.Word(rng.Intn(1 << 10))
				val := raw.Word(rng.Uint64())
				e.CacheWrite(func() raw.Word { return addr }, func() raw.Word { return val })
				e.CacheRead(func() raw.Word { return addr }, func(w raw.Word) { r.digest[id] += w })
			}))
		} else {
			rng := traffic.NewRNG(0xB0B0 + uint64(id))
			exec.SetFirmware(raw.FirmwareFunc(func(e *raw.Exec) {
				e.DynRecv(raw.DynGeneral, 4, func(ws []raw.Word) {
					for _, w := range ws {
						r.digest[id] = r.digest[id]*31 + w
					}
				})
				addr := raw.Word(rng.Intn(1 << 10))
				e.CacheRead(func() raw.Word { return addr }, func(w raw.Word) { r.digest[id] ^= w })
			}))
		}
	}
	return r
}

// buildHotspot: every tile but 0 floods seeded messages at tile 0,
// contending for its router ports and receive queue; tile 0 digests as
// fast as it can.
func buildHotspot(cycles int64) *workloadRun {
	chip, rec := tracedChip(cycles)
	mem.Attach(chip, 20)
	r := &workloadRun{chip: chip, rec: rec, digest: make([]raw.Word, 16)}
	chip.Tile(0).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec) {
		e.DynRecv(raw.DynGeneral, 4, func(ws []raw.Word) {
			for _, w := range ws {
				r.digest[0] = r.digest[0]*31 + w
			}
		})
	}))
	for id := 1; id < 16; id++ {
		id := id
		rng := traffic.NewRNG(0x50707 + uint64(id))
		chip.Tile(id).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec) {
			msg := []raw.Word{raw.DynHeaderTag(0, 0, 3, raw.Word(id))}
			for k := 0; k < 3; k++ {
				msg = append(msg, raw.Word(rng.Uint64()))
			}
			e.DynSend(raw.DynGeneral, func() []raw.Word { return msg })
			e.Compute(1 + rng.Intn(4))
			addr := raw.Word(rng.Intn(1 << 9))
			val := raw.Word(rng.Uint64())
			e.CacheWrite(func() raw.Word { return addr }, func() raw.Word { return val })
		}))
	}
	return r
}

// buildMulticast: rows of static switches fan every word from the West
// edge input out to both the local processor and the East neighbor — the
// fanout-splitting idiom of §8.6 — on both static networks at once
// (row 0 on network 0, row 1 on network 1). Words are pushed at the edge
// in seeded bursts during the run; the last tile of each row forwards to
// its East edge sink, whose drained words and timestamps enter the
// fingerprint.
func buildMulticast(cycles int64) *workloadRun {
	chip, rec := tracedChip(cycles)
	r := &workloadRun{chip: chip, rec: rec, digest: make([]raw.Word, 16)}
	fanout := asm.MustAssembleSwitch("L: jump L with $cWi->$csti, $cWi->$cEo")
	for x := 0; x < 4; x++ {
		if err := chip.Tile(x).SetSwitchProgramOn(0, fanout); err != nil {
			panic(err)
		}
		if err := chip.Tile(4+x).SetSwitchProgramOn(1, fanout); err != nil {
			panic(err)
		}
		id0, id1 := x, 4+x
		chip.Tile(id0).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec) {
			e.RecvOn(0, func(w raw.Word) { r.digest[id0] = r.digest[id0]*31 + w })
		}))
		chip.Tile(id1).Exec().SetFirmware(raw.FirmwareFunc(func(e *raw.Exec) {
			e.RecvOn(1, func(w raw.Word) { r.digest[id1] = r.digest[id1]*31 + w })
		}))
	}
	rngA := traffic.NewRNG(0xFA17)
	rngB := traffic.NewRNG(0xFA18)
	in0 := chip.StaticInOn(0, 0, raw.DirW)
	in1 := chip.StaticInOn(1, 4, raw.DirW)
	r.drive = func(cycle int64) {
		if cycle >= cycles-500 {
			return // stop feeding so the pipelines drain before the diff
		}
		for k := 0; k < 8; k++ {
			in0.Push(raw.Word(rngA.Uint64()))
			in1.Push(raw.Word(rngB.Uint64()))
		}
	}
	return r
}
