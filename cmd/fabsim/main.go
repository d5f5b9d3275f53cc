// Command fabsim runs the fabric-level comparisons: the Rotating Crossbar
// against the Chapter 2 baselines (FIFO input queueing, VOQ+iSLIP, ideal
// output queueing, variable-length scheduling), plus the Chapter 8
// extension studies (QoS, multicast, scaling, second network).
//
// Usage:
//
//	fabsim [-full] [-engine fast|ref] [-reprobe N] [-metrics FORMAT[:FILE]]
//	       [-topology ring|mesh|fattree] [-chips N] [-faults SCHED]
//	       [-workload SPEC] [-recordtrace FILE]
//	       [-exp all|background|ablation|fairness|qos|multicast|scale|scaleout|degraded|restore|telemetry|heavytail]
//
// -exp restore runs the port re-admission experiment (degrade -> restore
// -> probation vs never-failed); -reprobe arms line-flap retry with the
// given backoff base (in quanta) for that experiment's routers. -exp
// telemetry runs the telemetry-plane experiment; adding -metrics also
// exports its snapshot (jsonl, csv, or prom) to FILE or stdout. -exp
// heavytail runs the production-traffic comparison (heavy-tailed flows
// and IMIX mixes vs the paper's synthetics, plus the cell fabrics under
// skewed destinations); -workload re-points its fabric table at any
// workload spec, and -recordtrace freezes the workload's open-loop
// arrival stream as a TRAF1 trace.
//
// -topology switches fabsim from the experiment suite to a single
// N-chip cycle-level fabric run: -chips sizes it (a 16-chip mesh is the
// 4x4 grid), -faults may schedule whole-chip kills and re-admissions
// (killchip@CYCLE:cK / restorechip@CYCLE:cK) and trunk loss
// (killtrunk@CYCLE:cA-cB / restoretrunk@CYCLE:cA-cB), and -metrics
// exports the fabric-plane telemetry snapshot (per-trunk conservation
// counters, bisection utilization, lifecycle events). -heal arms the
// fault-healing plane — adaptive rerouting around dead chips/trunks,
// trunk-level ARQ retransmission, end-to-end duplicate suppression —
// with -healwindow/-healretries/-healbackoff/-healseed tuning the ARQ;
// the run then also audits the end-to-end delivery ledger and prints
// the healing summary. Example:
//
//	fabsim -topology mesh -chips 16 -heal \
//	       -faults 'killchip@20000:c5;killtrunk@30000:c1-c2;restorechip@60000:c5' -metrics prom
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/ip"
	"repro/internal/raw"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// main delegates to run so deferred cleanups (profile flush) execute
// before the process exits — os.Exit in main would skip them.
func main() {
	os.Exit(run())
}

func run() int {
	full := flag.Bool("full", false, "run the long (recorded) experiment durations")
	which := flag.String("exp", "all", "experiment: all, background, ablation, fairness, qos, multicast, scale, scaleout, degraded, restore, telemetry, heavytail")
	reprobe := flag.Int("reprobe", 0, "line-flap retry backoff base in quanta for the restore experiment (0 = latched LineDown)")
	var common cli.Common
	var wflags cli.WorkloadFlags
	wflags.RegisterWorkload(flag.CommandLine)
	common.RegisterSim(flag.CommandLine)
	common.RegisterMetrics(flag.CommandLine)
	common.RegisterProfile(flag.CommandLine)
	common.RegisterFabric(flag.CommandLine)
	common.RegisterFaults(flag.CommandLine)
	common.RegisterHeal(flag.CommandLine)
	flag.Parse()
	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	}
	if err := wflags.CheckConflicts(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	}
	if wl, given, err := wflags.Build(); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	} else if given {
		if n, wrote, err := wflags.MaybeRecord(wl, 4096); err != nil {
			fmt.Fprintln(os.Stderr, "fabsim:", err)
			return 1
		} else if wrote {
			fmt.Printf("workload: recorded %d arrivals -> %s\n", n, wflags.RecordTrace)
		}
	}
	stopProf, err := common.StartProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		return 2
	}
	defer stopProf()
	engine, _ := common.EngineChoice() // validated above
	exp.SetEngine(engine)
	exp.SetReprobeQuanta(*reprobe)

	q := exp.Quick
	if *full {
		q = exp.Full
	}

	if spec, ok, _ := common.FabricSpec(); ok { // err caught by Validate
		if err := runFabric(spec, &common, engine, q); err != nil {
			fmt.Fprintln(os.Stderr, "fabsim:", err)
			return 1
		}
		return 0
	}

	show := func(name string) bool { return *which == "all" || *which == name }

	if show("background") {
		_, _, _, tb := exp.HOLvsVOQ(q)
		fmt.Println(tb)
		_, _, tb2 := exp.CellsVsVariable(q)
		fmt.Println(tb2)
	}
	if show("ablation") {
		_, _, tb := exp.SecondNetworkAblation(q)
		fmt.Println(tb)
	}
	if show("fairness") {
		_, tb := exp.Fairness(q)
		fmt.Println(tb)
	}
	if show("qos") {
		_, tb := exp.QoS(q)
		fmt.Println(tb)
	}
	if show("multicast") {
		_, _, tb := exp.Multicast(q)
		fmt.Println(tb)
	}
	if show("scale") {
		fmt.Println(exp.Scale8(q))
	}
	if show("scaleout") {
		fmt.Println(exp.ScaleOut(q))
	}
	if show("lookup") {
		fmt.Println(exp.LookupCost(5000))
	}
	if show("heavytail") {
		_, tb := exp.HeavyTail(q)
		fmt.Println(tb)
		spec := "flows:alpha=1.3,zipf=1.1"
		if wflags.Given() {
			spec = wflags.Workload
		}
		ftb, err := exp.HeavyTailFabric(q, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabsim:", err)
			return 1
		}
		fmt.Println(ftb)
	}
	if show("degraded") {
		_, _, tb := exp.DegradedCrossbar(q)
		fmt.Println(tb)
	}
	if show("restore") {
		_, _, tb := exp.RestoredCrossbar(q)
		fmt.Println(tb)
	}
	if show("telemetry") {
		snap, tb := exp.Telemetry(q)
		fmt.Println(tb)
		sink, _ := common.MetricsSink()
		if sink != nil {
			if err := sink.Export(snap); err != nil {
				fmt.Fprintln(os.Stderr, "fabsim:", err)
				return 1
			}
			if sink.Path != "" {
				fmt.Printf("telemetry: %s snapshot -> %s (quanta %d)\n",
					sink.Format, sink.Path, snap.Quanta)
			}
		}
	}
	return 0
}

// runFabric drives one N-chip fabric under balanced antipodal traffic
// (external e -> external (e + E/2) mod E, always cross-chip), applying
// any chip/trunk lifecycle controls from -faults, and prints the fabric
// summary. -heal arms the healing plane and audits the end-to-end
// delivery ledger. -metrics exports the fabric-plane telemetry snapshot.
func runFabric(spec cluster.Spec, common *cli.Common, engine raw.Engine, q exp.Quality) error {
	cfg := cluster.Config{Topology: spec, Router: router.DefaultConfig(), Heal: common.HealConfig()}
	cfg.Router.Engine = engine
	if cfg.Heal.Enabled {
		if risk := spec.PartitionRisk(); risk != "" {
			fmt.Fprintf(os.Stderr, "fabsim: warning: %s\n", risk)
		}
	}
	f, err := cluster.NewFabric(cfg)
	if err != nil {
		return err
	}
	if common.Faults != "" {
		sched, err := fault.Parse(common.Faults)
		if err != nil {
			return err
		}
		f.ApplySchedule(sched)
	}
	rounds := 150
	if q == exp.Full {
		rounds = 600
	}
	ext := spec.Externals()
	id := uint16(0)
	for i := 0; i < rounds; i++ {
		for e := 0; e < ext; e++ {
			// A refused offer (dead ingress chip, dead or partitioned-away
			// destination) never grows the backlog, so bound the fill by
			// attempts too or a faulted run would feed forever.
			for tries := 0; f.InputBacklogWords(e) < 4096 && tries < 64; tries++ {
				id++
				dst := (e + ext/2) % ext
				pkt := ip.NewPacket(traffic.PortAddr(e, uint32(id)),
					traffic.PortAddr(dst, uint32(id)), 64, 1024, id)
				f.OfferPacket(e, &pkt)
			}
		}
		f.Run(200)
		for e := 0; e < ext; e++ {
			if _, err := f.DrainOutput(e); err != nil {
				return err
			}
		}
	}
	if err := f.ConservationError(); err != nil {
		return err
	}
	if cfg.Heal.Enabled {
		if err := f.DeliveryError(); err != nil {
			return err
		}
	}
	snap := f.TelemetrySnapshot()
	tb := &stats.Table{
		Caption: fmt.Sprintf("%s fabric: %d chips, %d externals, %d trunks, cycle %d",
			spec, spec.NumChips(), ext, len(snap.Trunks), f.Cycle()),
		Headers: []string{"metric", "value"},
	}
	tb.AddRow("external Gbps", stats.Gbps(f.ExternalWordsOut()*4, f.Cycle(), cfg.Router.ClockHz))
	tb.AddRow("packets delivered", f.ExternalPktsOut())
	tb.AddRow("bisection utilization", snap.BisectionUtilization)
	tb.AddRow("dead chips", len(snap.DeadChips))
	tb.AddRow("dead trunks", len(snap.DeadTrunks))
	tb.AddRow("lifecycle events", len(snap.Events))
	if h := snap.Heal; h != nil {
		tb.AddRow("heal epochs", h.Epochs)
		tb.AddRow("tables rerouted", h.Reroutes)
		tb.AddRow("frames retransmitted", h.RetransFrames)
		tb.AddRow("duplicate words suppressed", h.DupWords)
		var dropped int64
		for _, d := range h.Dropped {
			dropped += d.Words
		}
		tb.AddRow("words dropped (counted)", dropped)
		for _, d := range h.Dropped {
			if d.Words > 0 {
				tb.AddRow("  dropped: "+d.Cause, d.Words)
			}
		}
	}
	fmt.Println(tb)
	sink, _ := common.MetricsSink()
	if sink != nil {
		if err := sink.ExportFabric(snap); err != nil {
			return err
		}
		if sink.Path != "" {
			fmt.Printf("telemetry: %s fabric snapshot -> %s\n", sink.Format, sink.Path)
		}
	}
	return nil
}
