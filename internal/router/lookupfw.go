package router

import (
	"repro/internal/ip"
	"repro/internal/lookup"
	"repro/internal/raw"
)

// ipAddr converts a machine word to an IP address.
func ipAddr(w raw.Word) ip.Addr { return ip.Addr(w) }

// lookupNoRoute is the reply for an unroutable destination.
const lookupNoRoute raw.Word = 0xffffffff

// lookupMcastBit flags a multicast reply; the low nibble carries the
// egress member mask.
const lookupMcastBit raw.Word = 1 << 31

// DRAM layout of the compressed forwarding table (§8.2: Degermark-style
// small forwarding tables): a 2^16-entry first level, then 2^16-entry
// chunks for long prefixes. Tables are double-buffered (§2.2.1: the
// network processor updates the forwarding engines' table copies while
// they forward): epoch 0 and epoch 1 occupy disjoint DRAM regions, so a
// table switch needs no cache invalidation — the new epoch's addresses
// have never been cached.
const (
	lkL1Base     raw.Word = 0x0010_0000
	lkChunkBase  raw.Word = 0x0100_0000
	lkL1Base2    raw.Word = 0x0800_0000
	lkChunkBase2 raw.Word = 0x0900_0000
	lkChunkSize  raw.Word = 1 << 16
)

// lookupFW is the Lookup Processor firmware (§4.2): it serves its ingress
// one destination lookup at a time against the forwarding table in
// off-chip DRAM through the data cache (1 probe for prefixes up to /16,
// 2 probes beyond). Hot prefixes stay cache-resident, which is what keeps
// the lookup off the router's critical path in steady state.
type lookupFW struct {
	rt   *Router
	port int

	// sched is the compiled cycle-cost schedule (shared by all four
	// lookup instances, surviving degrade/restore/park); phase indexes
	// it. Written only while the tile executes firmware ops, read by the
	// macro-stepper between cycles.
	sched *FWSchedule
	phase int

	dst raw.Word
	v1  raw.Word
}

// SteadyState implements raw.SteadyFirmware: the compiled schedule says
// whether the current phase presents a constant per-cycle profile.
func (f *lookupFW) SteadyState() bool { return f.sched.Steady(f.phase) }

func (f *lookupFW) Refill(e *raw.Exec) {
	f.phase = lkPhaseAwait
	e.Recv(func(w raw.Word) { f.dst = w })
	e.Then(func(e *raw.Exec) {
		// Class D (224.0.0.0/4): the §8.6 multicast group table, modeled
		// as a small associative memory beside the lookup processor.
		if f.dst>>28 == 0xE && f.rt.cfg.Multicast {
			mask, ok := f.rt.cfg.Groups[ipAddr(f.dst)]
			e.Compute(3) // the CAM probe
			e.SendFunc(func() raw.Word {
				f.rt.stats.Lookups[f.port]++
				if !ok || mask == 0 {
					return lookupNoRoute
				}
				return lookupMcastBit | raw.Word(mask&0xf)
			})
			return
		}
		f.probe(e)
	})
}

func (f *lookupFW) probe(e *raw.Exec) {
	f.phase = lkPhaseProbe
	l1, chunks := tableBases(f.rt.tableEpoch)
	// Level-1 probe.
	e.CacheRead(func() raw.Word { return l1 + f.dst>>16 },
		func(w raw.Word) { f.v1 = w })
	e.Then(func(e *raw.Exec) {
		f.rt.stats.Lookups[f.port]++
		v := int32(f.v1)
		if v >= -1 {
			e.SendFunc(func() raw.Word { return replyWord(v) })
			return
		}
		// Long prefix: second probe into the chunk.
		chunk := raw.Word(-2 - v)
		e.CacheRead(func() raw.Word {
			return chunks + chunk*lkChunkSize + f.dst&0xffff
		}, func(w raw.Word) {
			f.v1 = w
		})
		e.Then(func(e *raw.Exec) {
			e.SendFunc(func() raw.Word { return replyWord(int32(f.v1)) })
		})
	})
}

// tableBases returns the DRAM bases of the given table epoch.
func tableBases(epoch int) (l1, chunks raw.Word) {
	if epoch&1 == 0 {
		return lkL1Base, lkChunkBase
	}
	return lkL1Base2, lkChunkBase2
}

func replyWord(v int32) raw.Word {
	if v < 0 {
		return lookupNoRoute
	}
	return raw.Word(v)
}

// TableImage serializes a compact forwarding table into (address, words)
// pairs for the DRAM controller, at epoch 0's bases.
func TableImage(t *lookup.Patricia) []TableSegment {
	return TableImageAt(t, 0)
}

// TableImageAt serializes the table at the given epoch's DRAM bases.
func TableImageAt(t *lookup.Patricia, epoch int) []TableSegment {
	c := lookup.NewCompactTable(t)
	l1, chunks := c.Image()
	l1Base, chunkBase := tableBases(epoch)
	segs := []TableSegment{{Addr: l1Base, Words: l1}}
	for i, ch := range chunks {
		segs = append(segs, TableSegment{
			Addr:  chunkBase + raw.Word(i)*lkChunkSize,
			Words: ch,
		})
	}
	return segs
}

// TableSegment is one contiguous DRAM region of the forwarding table.
type TableSegment struct {
	Addr  raw.Word
	Words []uint32
}
