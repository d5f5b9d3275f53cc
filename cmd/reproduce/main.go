// Command reproduce runs the complete experiment suite at full quality
// and prints every regenerated table and figure — the source of record
// for EXPERIMENTS.md.
//
// Usage:
//
//	reproduce [-quick] [-engine fast|ref] [-reprobe N] [-workload SPEC]
//
// -workload re-points the production-traffic section (heavy-tailed
// fabric comparison) at an arbitrary workload spec; -recordtrace
// additionally freezes that workload's arrival stream as a TRAF1 trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "use the short benchmark durations")
	reprobe := flag.Int("reprobe", 0, "line-flap retry backoff base in quanta for the recovery experiment (0 = latched LineDown)")
	var common cli.Common
	var wflags cli.WorkloadFlags
	common.RegisterSim(flag.CommandLine)
	common.RegisterProfile(flag.CommandLine)
	wflags.RegisterWorkload(flag.CommandLine)
	flag.Parse()
	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	if err := wflags.CheckConflicts(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	if wl, given, err := wflags.Build(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	} else if given {
		if n, wrote, err := wflags.MaybeRecord(wl, 4096); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		} else if wrote {
			fmt.Printf("workload: recorded %d arrivals -> %s\n", n, wflags.RecordTrace)
		}
	}
	stopProf, err := common.StartProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	defer stopProf()
	q := exp.Full
	if *quick {
		q = exp.Quick
	}
	engine, _ := common.EngineChoice() // validated above
	exp.SetEngine(engine)
	exp.SetReprobeQuanta(*reprobe)

	section := func(name string) func() {
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		return func() { fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds()) }
	}

	done := section("Figure 7-1 (top): peak throughput")
	_, _, tb := exp.Figure71(q, false)
	fmt.Println(tb)
	done()

	done = section("Figure 7-1 (bottom): average throughput")
	_, _, tb = exp.Figure71(q, true)
	fmt.Println(tb)
	done()

	done = section("§7.2 headline")
	mpps, gbps := exp.Headline(q)
	fmt.Printf("%.2f Mpps, %.2f Gbps at 1024B peak (paper: 3.3 Mpps, 26.9 Gbps)\n", mpps, gbps)
	done()

	done = section("Figure 7-3: per-tile utilization")
	_, _, render := exp.Figure73(q)
	fmt.Println(render)
	done()

	done = section("§6.1/§6.2 configuration space")
	fmt.Println(exp.ConfigSpaceTable())
	done()

	done = section("§5.3 second-network ablation")
	_, _, tb = exp.SecondNetworkAblation(q)
	fmt.Println(tb)
	done()

	done = section("§5.4 fairness")
	_, tb = exp.Fairness(q)
	fmt.Println(tb)
	done()

	done = section("§2.2.2 HOL vs VOQ")
	_, _, _, tb = exp.HOLvsVOQ(q)
	fmt.Println(tb)
	done()

	done = section("§2.2.2 cells vs variable length")
	_, _, tb = exp.CellsVsVariable(q)
	fmt.Println(tb)
	done()

	done = section("§8.7 QoS")
	_, tb = exp.QoS(q)
	fmt.Println(tb)
	done()

	done = section("§8.6 multicast")
	_, _, tb = exp.Multicast(q)
	fmt.Println(tb)
	done()

	done = section("§8.5 scaling")
	fmt.Println(exp.Scale8(q))
	done()

	done = section("§8.2 lookup structures")
	fmt.Println(exp.LookupCost(5000))
	done()

	done = section("§2.2.2 multicast cells")
	_, _, _, tb = exp.McastCells(q)
	fmt.Println(tb)
	done()

	done = section("latency vs offered load")
	fmt.Println(exp.DelayVsLoad(q))
	done()

	done = section("§8.5 two-chip composition (cycle level)")
	fmt.Println(exp.ClusterScaling(q))
	done()

	done = section("§8.5 scale-out fabrics (cycle level)")
	fmt.Println(exp.ScaleOut(q))
	done()

	done = section("§8.6 multicast at cycle level")
	_, tb = exp.McastCycle(q)
	fmt.Println(tb)
	done()

	done = section("§2.2.2 iSLIP iterations")
	fmt.Println(exp.ISLIPIterations(q))
	done()

	done = section("§8.1 full utilization (VOQ ingress)")
	_, _, tb = exp.FullUtilization(q)
	fmt.Println(tb)
	done()

	done = section("PIM vs iSLIP")
	fmt.Println(exp.PIMvsISLIP(q))
	done()

	done = section("cycle-level unloaded latency")
	fmt.Println(exp.CycleLatency(q))
	done()

	done = section("quantum-size ablation")
	fmt.Println(exp.QuantumAblation(q))
	done()

	done = section("control-plane convergence")
	fmt.Println(exp.NetprocConvergence())
	done()

	done = section("robustness: degraded crossbar (3 live ports vs 4)")
	_, _, tb = exp.DegradedCrossbar(q)
	fmt.Println(tb)
	done()

	done = section("robustness: port re-admission (degrade -> restore vs never-failed)")
	_, _, tb = exp.RestoredCrossbar(q)
	fmt.Println(tb)
	done()

	done = section("telemetry plane: per-quantum metrics")
	_, tb = exp.Telemetry(q)
	fmt.Println(tb)
	done()

	done = section("traffic plane: heavy-tailed production workloads")
	_, tb = exp.HeavyTail(q)
	fmt.Println(tb)
	fabricSpec := "flows:alpha=1.3,zipf=1.1"
	if wflags.Given() {
		fabricSpec = wflags.Workload
	}
	ftb, err := exp.HeavyTailFabric(q, fabricSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
	fmt.Println(ftb)
	done()
}
