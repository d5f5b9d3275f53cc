package main

import (
	"fmt"

	"repro/internal/ip"
)

// oracle counts the output checks a run makes and the ones that fail.
// A failure never stops the run: it is counted, so error_rate is
// failed / attempted, and the first few messages are kept for the log.
type oracle struct {
	attempted, failed int64
	messages          []string
}

// check records one check and returns ok.
func (o *oracle) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.messages) < 8 {
			o.messages = append(o.messages, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checkErr records a check that passes when err is nil.
func (o *oracle) checkErr(err error, what string) bool {
	if err != nil {
		return o.check(false, "%s: %v", what, err)
	}
	return o.check(true, "")
}

// ledger is one egress port's delivered-word ledger: packets, words,
// and an FNV-1a digest over every delivered word in order.
type ledger struct {
	pkts, words int64
	digest      uint64
}

func newLedgers(n int) []ledger {
	l := make([]ledger, n)
	for i := range l {
		l[i].digest = 14695981039346656037
	}
	return l
}

func (l *ledger) word(w uint32) {
	for i := 0; i < 4; i++ {
		l.digest ^= uint64(byte(w >> (8 * i)))
		l.digest *= 1099511628211
	}
}

// add folds one delivered packet into the ledger.
func (l *ledger) add(p *ip.Packet) {
	h := p.Header.Marshal()
	for _, w := range h {
		l.word(w)
	}
	for _, w := range p.Payload {
		l.word(w)
	}
	l.pkts++
	l.words += int64(p.LenWords())
}

// verifyPacket checks one packet delivered at an egress whose prefix is
// (10+port)/8: it must be addressed there, have the size it was offered
// at, and carry exactly the payload ip.NewPacket generated for its id
// and destination (routers rewrite headers, never payloads).
func verifyPacket(o *oracle, port int, p *ip.Packet, sizeBytes int) {
	ok := uint32(p.Header.Dst)>>24 == uint32(10+port)
	if sizeBytes > 0 {
		ok = ok && int(p.Header.TotalLen) == sizeBytes
	}
	ok = ok && len(p.Payload) == (int(p.Header.TotalLen)-ip.HeaderBytes+3)/4
	seed := uint32(p.Header.ID)*2654435761 + uint32(p.Header.Dst)
	for _, w := range p.Payload {
		seed = seed*1664525 + 1013904223
		if w != seed {
			ok = false
			break
		}
	}
	o.check(ok, "egress %d: bad packet id %d dst %v len %d", port, p.Header.ID, p.Header.Dst, p.Header.TotalLen)
}
