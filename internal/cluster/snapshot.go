package cluster

import (
	"fmt"

	"repro/internal/trace"
)

// Deterministic whole-fabric checkpoints. One FABCKPT1 blob captures all
// N chips as a single artifact: each chip's RTRCKPT1 record-replay blob
// plus the fabric-level state that lives outside any chip — the trunk
// framers and their conservation counters, the chip lifecycle (dead
// flags, epochs, birth cycles), the scheduled-control cursor, the
// external drop counts, the fabric event log, and the healing plane
// (ledger counters, retransmit custody, flow-sequence and egress-window
// maps). Healed route tables need no fabric-level record: each chip's
// RTRCKPT1 blob carries its table-update log and the replay re-pokes
// them, so restore re-derives the routing epoch's tables bit-for-bit and
// only recomputes the side state (reachability, partition verdict).
// Restoring onto a freshly built fabric with the same Config and the
// same ApplySchedule calls replays every chip and adopts the fabric
// state; the combined run is bit-for-bit identical to an uninterrupted
// one — mid-heal checkpoints included — provided all kills and
// re-admissions were scheduled through the fault grammar, not manual.

const fabSnapMagic = "FABCKPT1"

// Snapshot serializes the whole fabric at the current cycle. Requires
// Config.Router.Checkpoint (every chip records its inputs). Call between
// Run calls only.
func (f *Fabric) Snapshot() ([]byte, error) {
	if !f.cfg.Router.Checkpoint {
		return nil, fmt.Errorf("cluster: fabric snapshot requires Config.Router.Checkpoint")
	}
	b := []byte(fabSnapMagic)
	b = fabLE64(b, uint64(f.spec.Kind))
	b = fabLE64(b, uint64(f.spec.Chips))
	b = fabLE64(b, uint64(f.spec.W))
	b = fabLE64(b, uint64(f.spec.H))
	b = fabLE64(b, uint64(f.cycle))
	b = fabLE64(b, uint64(len(f.controls)))
	b = fabLE64(b, uint64(f.nextCtl))
	for k := range f.chips {
		s := &f.chips[k]
		flags := uint64(0)
		if s.dead {
			flags = 1
		}
		b = fabLE64(b, flags)
		b = fabLE64(b, uint64(s.epoch))
		b = fabLE64(b, uint64(s.bornAt))
		b = fabLE64(b, uint64(s.wordsIn))
		b = fabLE64(b, uint64(s.wordsOut))
		chip, err := s.r.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: chip %d: %w", k, err)
		}
		b = fabLE64(b, uint64(len(chip)))
		b = append(b, chip...)
	}
	for ti := range f.trunks {
		t := &f.trunks[ti]
		dead := uint64(0)
		if t.dead {
			dead = 1
		}
		b = fabLE64(b, dead)
		for d := 0; d < 2; d++ {
			td := &t.dir[d]
			b = fabLE64(b, uint64(td.drained))
			b = fabLE64(b, uint64(td.delivered))
			b = fabLE64(b, uint64(td.dropped))
			b = fabLE64(b, uint64(td.retrans))
			b = fabLE64(b, uint64(td.frames))
			b = fabLE64(b, uint64(td.acked))
			b = fabLE64(b, uint64(len(td.buf)))
			for _, w := range td.buf {
				b = fabLE32(b, w)
			}
		}
	}
	for _, v := range f.extDropped {
		b = fabLE64(b, uint64(v))
	}
	b = fabLE64(b, uint64(len(f.events.Events)))
	for _, e := range f.events.Events {
		b = fabLE64(b, uint64(e.Cycle))
		b = fabLE64(b, uint64(e.Port))
		b = fabLE64(b, uint64(e.Kind))
		b = fabLE64(b, uint64(len(e.Detail)))
		b = append(b, e.Detail...)
	}
	// Healing plane: the end-to-end ledger (maintained with healing on or
	// off), retransmit custody, and the flow-tagging maps (sorted by key
	// so the blob is deterministic).
	b = fabLE64(b, uint64(f.injected))
	b = fabLE64(b, uint64(f.retiredExtOut))
	b = fabLE64(b, uint64(f.dupWords))
	for c := 0; c < numDropCauses; c++ {
		b = fabLE64(b, uint64(f.droppedCause[c]))
	}
	b = fabLE64(b, uint64(f.healEpoch))
	b = fabLE64(b, uint64(f.reroutes))
	b = fabLE64(b, uint64(f.retransFrames))
	b = fabLE64(b, uint64(f.retransWords))
	b = fabLE64(b, uint64(f.arqSeq))
	b = fabLE64(b, uint64(len(f.arq)))
	for _, e := range f.arq {
		b = fabLE64(b, uint64(e.trunk))
		b = fabLE64(b, uint64(e.dir))
		b = fabLE64(b, uint64(e.src))
		b = fabLE64(b, uint64(e.port))
		b = fabLE64(b, uint64(e.dstExt))
		b = fabLE64(b, uint64(e.seq))
		b = fabLE64(b, uint64(e.attempts))
		b = fabLE64(b, uint64(e.nextTry))
		b = fabLE64(b, uint64(len(e.words)))
		for _, w := range e.words {
			b = fabLE32(b, w)
		}
	}
	b = fabLE64(b, uint64(len(f.flowSeq)))
	for _, k := range sortedFlowKeys(f.flowSeq) {
		b = fabLE64(b, uint64(k))
		b = fabLE64(b, uint64(f.flowSeq[k]))
	}
	b = fabLE64(b, uint64(len(f.egressFlows)))
	for _, k := range sortedFlowKeys(f.egressFlows) {
		fl := f.egressFlows[k]
		flags := uint64(fl.max) << 1
		if fl.init {
			flags |= 1
		}
		b = fabLE64(b, uint64(k))
		b = fabLE64(b, flags)
		for _, w := range fl.bits {
			b = fabLE64(b, w)
		}
	}
	return b, nil
}

// RestoreSnapshot rebuilds the checkpointed fabric on a freshly
// constructed one. The receiver must have been built with the same
// Config (Checkpoint included, same per-chip fault schedules) and the
// same ApplySchedule calls as the run that produced the blob; chips are
// replayed individually (replacement chips are rebuilt at their
// checkpointed epoch first) and each replay fails with a divergence
// error if it does not converge to the checkpointed counters.
func (f *Fabric) RestoreSnapshot(blob []byte) error {
	if !f.cfg.Router.Checkpoint {
		return fmt.Errorf("cluster: fabric restore requires Config.Router.Checkpoint")
	}
	rd := fabReader{buf: blob}
	magic := rd.bytes(len(fabSnapMagic))
	if rd.err != nil || string(magic) != fabSnapMagic {
		return fmt.Errorf("cluster: not a fabric snapshot")
	}
	spec := Spec{
		Kind:  TopoKind(rd.u64()),
		Chips: int(rd.u64()),
		W:     int(rd.u64()),
		H:     int(rd.u64()),
	}
	if rd.err == nil && spec != f.spec {
		return fmt.Errorf("cluster: snapshot is for %s, this fabric is %s", spec, f.spec)
	}
	cycle := int64(rd.u64())
	nctls := int(rd.u64())
	nextCtl := int(rd.u64())
	if rd.err == nil && nctls != len(f.controls) {
		return fmt.Errorf("cluster: snapshot scheduled %d chip controls, this fabric %d — apply the same schedule before restoring",
			nctls, len(f.controls))
	}
	f.cycle = cycle
	f.nextCtl = nextCtl
	for k := range f.chips {
		dead := rd.u64() != 0
		epoch := int(rd.u64())
		bornAt := int64(rd.u64())
		wordsIn := int64(rd.u64())
		wordsOut := int64(rd.u64())
		chip := rd.bytes(int(rd.u64()))
		if rd.err != nil {
			return fmt.Errorf("cluster: truncated fabric snapshot (chip %d)", k)
		}
		if epoch != f.chips[k].epoch {
			if err := f.buildChip(k, epoch); err != nil {
				return err
			}
		}
		if err := f.chips[k].r.RestoreSnapshot(chip); err != nil {
			return fmt.Errorf("cluster: chip %d: %w", k, err)
		}
		f.chips[k].dead = dead
		f.chips[k].bornAt = bornAt
		f.chips[k].wordsIn = wordsIn
		f.chips[k].wordsOut = wordsOut
	}
	for ti := range f.trunks {
		t := &f.trunks[ti]
		t.dead = rd.u64() != 0
		for d := 0; d < 2; d++ {
			td := &t.dir[d]
			td.drained = int64(rd.u64())
			td.delivered = int64(rd.u64())
			td.dropped = int64(rd.u64())
			td.retrans = int64(rd.u64())
			td.frames = int64(rd.u64())
			td.acked = int64(rd.u64())
			td.buf = td.buf[:0]
			n := rd.u64()
			if n > uint64(len(blob)) {
				return fmt.Errorf("cluster: corrupt fabric snapshot (framer length)")
			}
			for ; n > 0 && rd.err == nil; n-- {
				td.buf = append(td.buf, rd.u32())
			}
		}
	}
	for e := range f.extDropped {
		f.extDropped[e] = int64(rd.u64())
	}
	f.events.Events = f.events.Events[:0]
	nev := rd.u64()
	if nev > uint64(len(blob)) {
		return fmt.Errorf("cluster: corrupt fabric snapshot (event count)")
	}
	for n := nev; n > 0 && rd.err == nil; n-- {
		cyc := int64(rd.u64())
		port := int(rd.u64())
		kind := trace.EventKind(rd.u64())
		detail := string(rd.bytes(int(rd.u64())))
		f.events.AddDetail(cyc, port, kind, detail)
	}
	f.injected = int64(rd.u64())
	f.retiredExtOut = int64(rd.u64())
	f.dupWords = int64(rd.u64())
	for c := 0; c < numDropCauses; c++ {
		f.droppedCause[c] = int64(rd.u64())
	}
	f.healEpoch = int64(rd.u64())
	f.reroutes = int64(rd.u64())
	f.retransFrames = int64(rd.u64())
	f.retransWords = int64(rd.u64())
	f.arqSeq = int64(rd.u64())
	f.arq = f.arq[:0]
	f.arqPend = make(map[[2]int]int)
	narq := rd.u64()
	if narq > uint64(len(blob)) {
		return fmt.Errorf("cluster: corrupt fabric snapshot (ARQ count)")
	}
	for n := narq; n > 0 && rd.err == nil; n-- {
		e := arqFrame{
			trunk:    int(rd.u64()),
			dir:      int(rd.u64()),
			src:      int(rd.u64()),
			port:     int(rd.u64()),
			dstExt:   int(rd.u64()),
			seq:      int64(rd.u64()),
			attempts: int(rd.u64()),
			nextTry:  int64(rd.u64()),
		}
		nw := rd.u64()
		if nw > uint64(len(blob)) {
			return fmt.Errorf("cluster: corrupt fabric snapshot (ARQ frame length)")
		}
		e.words = make([]uint32, 0, nw)
		for ; nw > 0 && rd.err == nil; nw-- {
			e.words = append(e.words, rd.u32())
		}
		if rd.err == nil {
			f.arq = append(f.arq, e)
			f.arqPend[[2]int{e.trunk, e.dir}]++
		}
	}
	f.flowSeq = make(map[uint32]uint32)
	nfs := rd.u64()
	if nfs > uint64(len(blob)) {
		return fmt.Errorf("cluster: corrupt fabric snapshot (flow count)")
	}
	for n := nfs; n > 0 && rd.err == nil; n-- {
		k := uint32(rd.u64())
		f.flowSeq[k] = uint32(rd.u64())
	}
	f.egressFlows = make(map[uint32]*egressFlow)
	nef := rd.u64()
	if nef > uint64(len(blob)) {
		return fmt.Errorf("cluster: corrupt fabric snapshot (egress flow count)")
	}
	for n := nef; n > 0 && rd.err == nil; n-- {
		k := uint32(rd.u64())
		flags := rd.u64()
		fl := &egressFlow{init: flags&1 != 0, max: uint16(flags >> 1)}
		for i := range fl.bits {
			fl.bits[i] = rd.u64()
		}
		if rd.err == nil {
			f.egressFlows[k] = fl
		}
	}
	if rd.err != nil {
		return fmt.Errorf("cluster: truncated fabric snapshot")
	}
	if rd.off != len(blob) {
		return fmt.Errorf("cluster: %d trailing bytes in fabric snapshot", len(blob)-rd.off)
	}
	// Re-derive the healing side state from the restored dead sets. The
	// healed tables themselves were re-installed by each chip's replayed
	// table-update log, so no pokes happen here — only the reachability
	// matrix, the cached next-hop assignment, and the partition verdict.
	if f.healOn() {
		f.applyHealState(false)
	} else {
		for k := range f.chips {
			f.routePorts[k] = f.staticPorts(k)
		}
		f.reach = nil
		f.partition = nil
	}
	return nil
}

func fabLE32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func fabLE64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// fabReader is a bounds-checked little-endian cursor; err latches.
type fabReader struct {
	buf []byte
	off int
	err error
}

func (r *fabReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("short read")
		}
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *fabReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *fabReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
