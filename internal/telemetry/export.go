package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Exporters. All three render the same Snapshot and are deterministic:
// fixed field order (struct-tag order for JSONL, literal headers for CSV,
// sorted-by-construction series for Prometheus), shortest-float
// formatting, no timestamps, no host identity. Two runs that simulate
// the same cycles produce byte-identical exports on either engine.

// Formats lists the supported export format names.
func Formats() []string { return []string{"jsonl", "csv", "prom"} }

// Encode renders the snapshot in the named format ("jsonl", "csv",
// "prom").
func (s *Snapshot) Encode(format string) ([]byte, error) {
	switch format {
	case "jsonl":
		return s.JSONL(), nil
	case "csv":
		return s.CSV(), nil
	case "prom":
		return s.Prometheus(), nil
	}
	return nil, fmt.Errorf("telemetry: unknown export format %q (have %s)",
		format, strings.Join(Formats(), ", "))
}

// jsonlMeta is the first JSONL line: the snapshot scalars.
type jsonlMeta struct {
	Record        string  `json:"record"`
	Schema        int     `json:"schema"`
	Cycle         int64   `json:"cycle"`
	ClockHz       float64 `json:"clock_hz"`
	Quanta        int64   `json:"quanta"`
	DeadPort      int     `json:"dead_port"`
	ProbationPort int     `json:"probation_port"`
	Failed        bool    `json:"failed"`
	FabricLost    int64   `json:"fabric_lost"`
	MacroWindows  int64   `json:"macro_windows"`
	MacroCycles   int64   `json:"macro_cycles"`
}

type jsonlMacroDisarm struct {
	Record string `json:"record"`
	MacroDisarm
}

type jsonlPort struct {
	Record string `json:"record"`
	PortSnap
}

type jsonlTile struct {
	Record string `json:"record"`
	TileSnap
}

type jsonlQuantum struct {
	Record string `json:"record"`
	QuantumRecord
}

type jsonlEvent struct {
	Record string `json:"record"`
	EventRecord
}

// JSONL renders one JSON object per line: a meta line, one line per
// port, one per tile, one per flight-recorder quantum, one per event.
func (s *Snapshot) JSONL() []byte {
	var b strings.Builder
	line := func(v any) {
		j, err := json.Marshal(v)
		if err != nil {
			panic("telemetry: JSONL marshal: " + err.Error())
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	line(jsonlMeta{
		Record: "meta", Schema: s.Schema, Cycle: s.Cycle, ClockHz: s.ClockHz,
		Quanta: s.Quanta, DeadPort: s.DeadPort, ProbationPort: s.ProbationPort,
		Failed: s.Failed, FabricLost: s.FabricLost,
		MacroWindows: s.MacroWindows, MacroCycles: s.MacroCycles,
	})
	for _, d := range s.MacroDisarms {
		line(jsonlMacroDisarm{Record: "macro_disarm", MacroDisarm: d})
	}
	for p := range s.Ports {
		line(jsonlPort{Record: "port", PortSnap: s.Ports[p]})
	}
	for t := range s.Tiles {
		line(jsonlTile{Record: "tile", TileSnap: s.Tiles[t]})
	}
	for _, q := range s.Recent {
		line(jsonlQuantum{Record: "quantum", QuantumRecord: q})
	}
	for _, e := range s.Events {
		line(jsonlEvent{Record: "event", EventRecord: e})
	}
	return []byte(b.String())
}

func csvF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// CSV renders four headed sections (#meta, #ports, #tiles, #quanta,
// #events), each a plain comma-separated table.
func (s *Snapshot) CSV() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "#meta\nschema,cycle,clock_hz,quanta,dead_port,probation_port,failed,fabric_lost,macro_windows,macro_cycles\n")
	fmt.Fprintf(&b, "%d,%d,%s,%d,%d,%d,%v,%d,%d,%d\n", s.Schema, s.Cycle, csvF(s.ClockHz),
		s.Quanta, s.DeadPort, s.ProbationPort, s.Failed, s.FabricLost,
		s.MacroWindows, s.MacroCycles)

	if len(s.MacroDisarms) > 0 {
		b.WriteString("#macro_disarms\ncause,count\n")
		for _, d := range s.MacroDisarms {
			fmt.Fprintf(&b, "%s,%d\n", d.Cause, d.Count)
		}
	}

	b.WriteString("#ports\nport,accepted,dropped,denied,frags_sent,pkts_in,pkts_out," +
		"reassembled,lookups,mcast_in,mcast_copies,abort_dropped,underruns," +
		"reprobes,recovered,flap_drops,words_in,words_out," +
		"granted_quanta,denied_quanta,words_granted,link_utilization," +
		"token_wait_count,token_wait_sum,token_wait_max\n")
	for p := range s.Ports {
		ps := &s.Ports[p]
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d\n",
			ps.Port, ps.Accepted, ps.Dropped, ps.Denied, ps.FragsSent, ps.PktsIn,
			ps.PktsOut, ps.Reassembled, ps.Lookups, ps.McastIn, ps.McastCopies,
			ps.AbortDropped, ps.Underruns, ps.Reprobes, ps.Recovered, ps.FlapDrops,
			ps.WordsIn, ps.WordsOut, ps.GrantedQuanta, ps.DeniedQuanta,
			ps.WordsGranted, csvF(ps.LinkUtilization),
			ps.TokenWait.Count, ps.TokenWait.Sum, ps.TokenWait.Max)
	}

	b.WriteString("#tiles\ntile,role,run,blocked,idle,blocked_pq_count,blocked_pq_sum,blocked_pq_max\n")
	for t := range s.Tiles {
		ts := &s.Tiles[t]
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%d,%d,%d\n", ts.Tile, ts.Role,
			ts.Run, ts.Blocked, ts.Idle,
			ts.BlockedPerQuantum.Count, ts.BlockedPerQuantum.Sum, ts.BlockedPerQuantum.Max)
	}

	b.WriteString("#quanta\nquantum,cycle,token,req_mask,grant_mask,w0,w1,w2,w3,d0,d1,d2,d3\n")
	for _, q := range s.Recent {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			q.Quantum, q.Cycle, q.Token, q.ReqMask, q.GrantMask,
			q.Words[0], q.Words[1], q.Words[2], q.Words[3],
			q.Drops[0], q.Drops[1], q.Drops[2], q.Drops[3])
	}

	b.WriteString("#events\ncycle,port,kind,detail\n")
	for _, e := range s.Events {
		fmt.Fprintf(&b, "%d,%d,%s,%s\n", e.Cycle, e.Port, e.Kind,
			strings.ReplaceAll(e.Detail, ",", ";"))
	}
	return []byte(b.String())
}

func promF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Prometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Counter series carry the _total suffix;
// histograms expose cumulative le buckets.
func (s *Snapshot) Prometheus() []byte {
	var b strings.Builder
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("raw_router_schema", "Telemetry snapshot schema version.")
	fmt.Fprintf(&b, "raw_router_schema %d\n", s.Schema)
	gauge("raw_router_cycle", "Simulated chip cycle at snapshot.")
	fmt.Fprintf(&b, "raw_router_cycle %d\n", s.Cycle)
	counter("raw_router_quanta_total", "Completed crossbar quanta observed by the collector.")
	fmt.Fprintf(&b, "raw_router_quanta_total %d\n", s.Quanta)
	gauge("raw_router_dead_port", "Masked-out port in degraded mode (-1 healthy).")
	fmt.Fprintf(&b, "raw_router_dead_port %d\n", s.DeadPort)
	gauge("raw_router_probation_port", "Re-admitted port still in probation (-1 none).")
	fmt.Fprintf(&b, "raw_router_probation_port %d\n", s.ProbationPort)
	gauge("raw_router_failed", "1 if the router fail-stopped.")
	failed := 0
	if s.Failed {
		failed = 1
	}
	fmt.Fprintf(&b, "raw_router_failed %d\n", failed)
	counter("raw_router_fabric_lost_total", "Packets lost inside the fabric by degraded-mode resets.")
	fmt.Fprintf(&b, "raw_router_fabric_lost_total %d\n", s.FabricLost)
	counter("raw_router_macro_windows_total", "Fast-engine macro-step windows executed (0 on the reference engine).")
	fmt.Fprintf(&b, "raw_router_macro_windows_total %d\n", s.MacroWindows)
	counter("raw_router_macro_cycles_total", "Cycles covered by fast-engine macro-step windows.")
	fmt.Fprintf(&b, "raw_router_macro_cycles_total %d\n", s.MacroCycles)
	if len(s.MacroDisarms) > 0 {
		counter("raw_router_macro_disarms_total", "Macro-step windows declined, by cause.")
		for _, d := range s.MacroDisarms {
			fmt.Fprintf(&b, "raw_router_macro_disarms_total{cause=\"%s\"} %d\n", d.Cause, d.Count)
		}
	}

	perPort := func(name, help, kind string, val func(p *PortSnap) string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for p := range s.Ports {
			fmt.Fprintf(&b, "%s{port=\"%d\"} %s\n", name, p, val(&s.Ports[p]))
		}
	}
	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	perPort("raw_router_accepted_total", "Packets passing ingress validation.", "counter",
		func(p *PortSnap) string { return i(p.Accepted) })
	perPort("raw_router_dropped_total", "Packets failing ingress validation.", "counter",
		func(p *PortSnap) string { return i(p.Dropped) })
	perPort("raw_router_denied_total", "Quanta requested and lost to arbitration.", "counter",
		func(p *PortSnap) string { return i(p.Denied) })
	perPort("raw_router_frags_sent_total", "Fragments streamed into the crossbar.", "counter",
		func(p *PortSnap) string { return i(p.FragsSent) })
	perPort("raw_router_pkts_in_total", "Packets fully streamed in at ingress.", "counter",
		func(p *PortSnap) string { return i(p.PktsIn) })
	perPort("raw_router_pkts_out_total", "Packets delivered at egress.", "counter",
		func(p *PortSnap) string { return i(p.PktsOut) })
	perPort("raw_router_abort_dropped_total", "Packets abandoned by robustness machinery.", "counter",
		func(p *PortSnap) string { return i(p.AbortDropped) })
	perPort("raw_router_underrun_quanta_total", "Quanta an ingress idled awaiting its line card.", "counter",
		func(p *PortSnap) string { return i(p.Underruns) })
	perPort("raw_router_words_out_total", "Words emitted on the output pins.", "counter",
		func(p *PortSnap) string { return i(p.WordsOut) })
	perPort("raw_router_granted_quanta_total", "Quanta the scheduler granted this port.", "counter",
		func(p *PortSnap) string { return i(p.GrantedQuanta) })
	perPort("raw_router_denied_quanta_total", "Quanta this port requested and was not granted.", "counter",
		func(p *PortSnap) string { return i(p.DeniedQuanta) })
	perPort("raw_router_words_granted_total", "Granted fragment words.", "counter",
		func(p *PortSnap) string { return i(p.WordsGranted) })
	perPort("raw_router_link_utilization", "Output-link occupancy (words per cycle).", "gauge",
		func(p *PortSnap) string { return promF(p.LinkUtilization) })

	// Token-wait histogram per port.
	name := "raw_router_token_wait_quanta"
	fmt.Fprintf(&b, "# HELP %s Quanta a granted port waited since its previous grant.\n# TYPE %s histogram\n", name, name)
	for p := range s.Ports {
		h := &s.Ports[p].TokenWait
		var cum int64
		for bi := 0; bi < NumBuckets; bi++ {
			cum += h.Buckets[bi]
			le := "+Inf"
			if ub := BucketUpper(bi); ub >= 0 {
				le = strconv.FormatInt(ub, 10)
			}
			fmt.Fprintf(&b, "%s_bucket{port=\"%d\",le=\"%s\"} %d\n", name, p, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum{port=\"%d\"} %d\n", name, p, h.Sum)
		fmt.Fprintf(&b, "%s_count{port=\"%d\"} %d\n", name, p, h.Count)
	}

	// Per-tile activity + blocked-per-quantum histogram.
	fmt.Fprintf(&b, "# HELP raw_router_tile_cycles_total Cumulative tile cycles by state.\n# TYPE raw_router_tile_cycles_total counter\n")
	for t := range s.Tiles {
		ts := &s.Tiles[t]
		fmt.Fprintf(&b, "raw_router_tile_cycles_total{tile=\"%d\",role=\"%s\",state=\"run\"} %d\n", ts.Tile, ts.Role, ts.Run)
		fmt.Fprintf(&b, "raw_router_tile_cycles_total{tile=\"%d\",role=\"%s\",state=\"blocked\"} %d\n", ts.Tile, ts.Role, ts.Blocked)
		fmt.Fprintf(&b, "raw_router_tile_cycles_total{tile=\"%d\",role=\"%s\",state=\"idle\"} %d\n", ts.Tile, ts.Role, ts.Idle)
	}
	name = "raw_router_tile_blocked_cycles_per_quantum"
	fmt.Fprintf(&b, "# HELP %s Blocked cycles per quantum per tile.\n# TYPE %s histogram\n", name, name)
	for t := range s.Tiles {
		ts := &s.Tiles[t]
		h := &ts.BlockedPerQuantum
		var cum int64
		for bi := 0; bi < NumBuckets; bi++ {
			cum += h.Buckets[bi]
			le := "+Inf"
			if ub := BucketUpper(bi); ub >= 0 {
				le = strconv.FormatInt(ub, 10)
			}
			fmt.Fprintf(&b, "%s_bucket{tile=\"%d\",le=\"%s\"} %d\n", name, ts.Tile, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum{tile=\"%d\"} %d\n", name, ts.Tile, h.Sum)
		fmt.Fprintf(&b, "%s_count{tile=\"%d\"} %d\n", name, ts.Tile, h.Count)
	}

	counter("raw_router_recovery_events_total", "Typed recovery events by kind.")
	// Aggregate by kind in wire-name order for a deterministic series set.
	counts := map[string]int64{}
	for _, e := range s.Events {
		counts[e.Kind]++
	}
	for _, k := range []string{"line-down", "line-up", "degrade", "restore-drain",
		"restore-rejected", "readmit", "live", "fail-stop",
		"slo-violation", "slo-clear", "drain-start", "checkpoint"} {
		if n, ok := counts[k]; ok {
			fmt.Fprintf(&b, "raw_router_recovery_events_total{kind=\"%s\"} %d\n", k, n)
		}
	}
	return []byte(b.String())
}
