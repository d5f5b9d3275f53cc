// Package serve runs the cycle-level router as a long-lived service: an
// open-loop ingest bridge admitting externally arriving packets onto the
// edge-port word streams, an HTTP control plane (/metrics, /healthz,
// /readyz, /drain), an SLO guardrail loop sampling telemetry against
// declarative gates, and a continuous chaos soak mode with supervised
// restart-from-checkpoint.
//
// The daemon keeps the simulation's determinism discipline: everything
// that touches simulator state runs on one goroutine (the slice loop);
// HTTP handlers communicate through a control channel serviced between
// slices plus an atomically published immutable Status. With a
// deterministic WorkloadFeeder, a serve run is a pure function of its
// configuration — it can be checkpointed mid-flight and restored
// bit-for-bit, which is what makes /drain a live-migration primitive.
package serve

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/ip"
	"repro/internal/traffic"
)

// Feeder produces the packets arriving at the router's four edge ports
// during one slice of the daemon's time base (Config.SliceCycles cycles).
// Deterministic feeders must be pure functions of the slice index so a
// restored daemon resumes the identical arrival stream.
type Feeder interface {
	// Slice returns the arrivals for slice s, per edge port.
	Slice(s int64) [4][]ip.Packet
	// Close releases any external resources (sockets).
	Close() error
}

// WorkloadFeeder bridges a traffic.Workload's open-loop arrival process
// onto the daemon's slice time base. All purity lives in
// internal/traffic: Process.Slice(k) is a pure function of (Spec, k), so
// a daemon restored from a checkpoint taken at a slice boundary sees
// exactly the arrival stream the uninterrupted run would have seen —
// including heavy-tailed flow mixes, diurnal curves, and recorded TRAF1
// traces.
type WorkloadFeeder struct {
	proc traffic.Process
}

// NewWorkloadFeeder compiles the workload's open-loop process on the
// daemon's slice length. The daemon routes four edge ports, so the spec
// must span exactly four.
func NewWorkloadFeeder(w *traffic.Workload, sliceCycles int64) (*WorkloadFeeder, error) {
	if sliceCycles <= 0 {
		return nil, fmt.Errorf("serve: workload feeder needs a positive slice length")
	}
	proc, err := w.OpenLoop(sliceCycles)
	if err != nil {
		return nil, err
	}
	if proc.Ports() != 4 {
		return nil, fmt.Errorf("serve: workload spans %d ports; the daemon routes 4", proc.Ports())
	}
	return &WorkloadFeeder{proc: proc}, nil
}

// Slice returns the arrivals for slice s, bucketed per edge port.
func (f *WorkloadFeeder) Slice(s int64) [4][]ip.Packet {
	var out [4][]ip.Packet
	for _, a := range f.proc.Slice(s) {
		id := uint16(a.Flow*0x9e37 + uint64(a.Seq))
		out[a.Port] = append(out[a.Port],
			ip.NewPacket(a.Pkt.SrcIP, a.Pkt.DstIP, 64, a.Pkt.SizeBytes, id))
	}
	return out
}

// Close is a no-op for the in-process feeder.
func (f *WorkloadFeeder) Close() error { return nil }

// UDPFeeder is the live-socket shim: one datagram is one packet. The
// first payload byte selects the ingress port (low two bits) and the
// second the destination port (low two bits; missing bytes default to
// 0); the datagram length, clamped to [header, 1500] bytes, becomes the
// packet size. A reader goroutine batches datagrams into a pending
// queue the slice loop drains at slice boundaries, so socket timing
// never touches simulator state mid-slice. A UDP-fed run is not
// deterministic (arrival slices depend on wall-clock interleaving) —
// use a WorkloadFeeder for runs that must replay.
type UDPFeeder struct {
	conn *net.UDPConn

	mu      sync.Mutex
	pending [4][]ip.Packet

	id uint16
}

// NewUDPFeeder binds addr ("host:port") and starts the reader.
func NewUDPFeeder(addr string) (*UDPFeeder, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: udp feed: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("serve: udp feed: %w", err)
	}
	f := &UDPFeeder{conn: conn}
	go f.reader()
	return f, nil
}

// Addr returns the bound socket address (useful with port 0).
func (f *UDPFeeder) Addr() net.Addr { return f.conn.LocalAddr() }

func (f *UDPFeeder) reader() {
	buf := make([]byte, 2048)
	for {
		n, _, err := f.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		port, dst := 0, 0
		if n >= 1 {
			port = int(buf[0] & 3)
		}
		if n >= 2 {
			dst = int(buf[1] & 3)
		}
		size := n
		if size < ip.HeaderBytes {
			size = ip.HeaderBytes
		}
		if size > 1500 {
			size = 1500
		}
		f.mu.Lock()
		f.id++
		pkt := ip.NewPacket(
			traffic.PortAddr(port, uint32(f.id)),
			traffic.PortAddr(dst, uint32(f.id)*2654435761+1),
			64, size, f.id)
		f.pending[port] = append(f.pending[port], pkt)
		f.mu.Unlock()
	}
}

// Slice hands over every datagram that arrived since the previous call.
func (f *UDPFeeder) Slice(s int64) [4][]ip.Packet {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out [4][]ip.Packet
	for p := range f.pending {
		out[p] = f.pending[p]
		f.pending[p] = nil
	}
	return out
}

// Close shuts the socket down and stops the reader.
func (f *UDPFeeder) Close() error { return f.conn.Close() }

// PortIngest is the admission ledger of one edge port. Every word the
// feeder offers is accounted to exactly one of: admitted to the input
// pins, still queued, shed by overload, or discarded by a drain — the
// identity Offered == Admitted + Queued + Shed + DrainDiscarded holds at
// every slice boundary and is asserted by the conservation SLO gate.
type PortIngest struct {
	OfferedPkts, OfferedWords   int64
	AdmittedPkts, AdmittedWords int64
	ShedPkts, ShedWords         int64
	DrainDiscardedPkts          int64
	DrainDiscardedWords         int64
	QueuedPkts, QueuedWords     int64
}

// admission is the serve-side bridge between a Feeder and the router's
// input pins: a bounded per-port packet queue with overload shedding.
// Arrivals beyond the queue bound are dropped and counted — never
// blocked — so a misbehaving source cannot stall the cycle loop.
type admission struct {
	queues    [4][]ip.Packet
	capPkts   int
	highWords int
	ledger    [4]PortIngest
}

func newAdmission(queuePkts, highWords int) *admission {
	return &admission{capPkts: queuePkts, highWords: highWords}
}

// offer admits one slice of arrivals into the queues. clamped halves the
// effective queue bound — the graceful-degradation response to a
// drop-rate SLO violation: shed earlier, keep queues (and therefore
// admission latency) short while the fabric is struggling.
func (a *admission) offer(arrivals [4][]ip.Packet, clamped bool) {
	cap := a.capPkts
	if clamped {
		if cap /= 2; cap < 1 {
			cap = 1
		}
	}
	for p := range arrivals {
		led := &a.ledger[p]
		for i := range arrivals[p] {
			pkt := &arrivals[p][i]
			w := int64(pkt.LenWords())
			led.OfferedPkts++
			led.OfferedWords += w
			if len(a.queues[p]) >= cap {
				led.ShedPkts++
				led.ShedWords += w
				continue
			}
			a.queues[p] = append(a.queues[p], *pkt)
			led.QueuedPkts++
			led.QueuedWords += w
		}
	}
}

// pump moves queued packets onto the input pins while the pin backlog is
// below the high-water mark. offerPkt is the router's OfferPacket bound
// to a port; backlog its current pin occupancy in words. A dead or
// wedged port stops consuming its backlog, so the high-water check is
// also the natural backpressure that stops pumping into a black hole.
func (a *admission) pump(backlog func(p int) int, offerPkt func(p int, pkt *ip.Packet)) {
	for p := range a.queues {
		led := &a.ledger[p]
		for len(a.queues[p]) > 0 {
			pkt := &a.queues[p][0]
			w := pkt.LenWords()
			if backlog(p)+w > a.highWords {
				break
			}
			offerPkt(p, pkt)
			led.AdmittedPkts++
			led.AdmittedWords += int64(w)
			led.QueuedPkts--
			led.QueuedWords -= int64(w)
			a.queues[p] = a.queues[p][1:]
		}
	}
}

// discardQueues empties every queue into the drain-discarded column —
// the end of a drain whose budget expired with packets still queued.
func (a *admission) discardQueues() {
	for p := range a.queues {
		led := &a.ledger[p]
		for i := range a.queues[p] {
			w := int64(a.queues[p][i].LenWords())
			led.DrainDiscardedPkts++
			led.DrainDiscardedWords += w
			led.QueuedPkts--
			led.QueuedWords -= w
		}
		a.queues[p] = nil
	}
}

// queuedWords returns the words currently queued on port p.
func (a *admission) queuedWords(p int) int64 { return a.ledger[p].QueuedWords }

// balanced reports whether the admission ledger identity holds on every
// port.
func (a *admission) balanced() bool {
	for p := range a.ledger {
		l := &a.ledger[p]
		if l.OfferedWords != l.AdmittedWords+l.QueuedWords+l.ShedWords+l.DrainDiscardedWords {
			return false
		}
		if l.QueuedWords < 0 || l.QueuedPkts < 0 {
			return false
		}
	}
	return true
}
